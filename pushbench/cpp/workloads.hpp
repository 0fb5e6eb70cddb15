// The benchmark workloads: set-up, closed-loop timed phase, traced
// replay and correctness checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "generators.hpp"
#include "report.hpp"

namespace pushbench {

struct RunConfig {
  Workload workload = Workload::kServeMix;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".bench_out";  ///< Atlas/snapshot files, trace file.
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;                  ///< End-to-end, or per-layer when traced.
  std::vector<std::string> notes;   ///< Human-readable lines (stdout).
};

/// Runs one workload. Untraced: every end-to-end metric. Traced: the
/// untraced phase (for trace.overhead_pct), the traced replay of the same
/// stream, the per-function and North-star probes, and the trace file.
RunResult runWorkload(const RunConfig& config);

/// Percentile level of lat_tail_ms for a workload: the highest level with
/// at least 10 samples beyond it at the op count a run completes.
double tailLevel(Workload w);

}  // namespace pushbench
