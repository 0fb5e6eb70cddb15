// Seeded op-stream generators for the benchmark workloads.
//
// Every op is drawn from the workload seed before any timing starts, and the
// program under test only ever sees the resulting PlanRequest / Partition /
// Machine values. The same (workload, seed) always yields a byte-identical
// stream (streamText), a different seed a different one.
//
// The draws are stratified: every block of B consecutive draws covers the B
// equal-probability strata of its distribution exactly once, in a seeded
// order. Sizes and ratio coordinates take the stratum midpoint; Zipf ranks
// take a seeded point inside the stratum. Any prefix of a stream therefore
// has nearly the same size, ratio and popularity mix whatever the seed, so a
// closed-loop run measures the same kind of work on every seed, while the
// seed still changes every key, its order, its walk seed and its inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/ratio.hpp"
#include "model/algo.hpp"
#include "serve/request.hpp"
#include "shapes/candidates.hpp"

namespace pushbench {

enum class Workload { kServeMix, kPlanFamilies, kExec };

const char* workloadName(Workload w);
/// Parses a workload name; returns false for an unknown one.
bool parseWorkload(const std::string& text, Workload& out);

// --- serve-mix -------------------------------------------------------------

/// Distinct keys serve-mix clients draw from.
inline constexpr std::size_t kServeUniverse = 4096;
/// Oracle cache capacity, well below the universe.
inline constexpr std::size_t kServeCacheCapacity = 1024;
inline constexpr int kServeClients = 3;
/// Hottest keys answered by the previous process (the warm snapshot).
inline constexpr std::size_t kServeWarmKeys = 16;
/// Walks per tier-B key.
inline constexpr int kServeSearchRuns = 2;

struct ServeMixStream {
  /// Key universe in Zipf rank order (index 0 is the hottest key).
  std::vector<pushpart::PlanRequest> universe;
  /// Per client, the sequence of universe indices it requests.
  std::vector<std::vector<std::uint32_t>> clients;
};

/// `opsPerClient` Zipf(1.0) draws per client from the key universe.
/// About 3 in 4 keys are tier A with n log-uniform in [256, 3000]; the rest
/// are tier B with n in [128, 384]. Ratios are off-grid points of
/// P_r in [1,20] x R_r in [1,10] (R_r <= P_r), and every eighth key carries
/// one of the paper's 11 ratios.
ServeMixStream serveMixStream(std::uint64_t seed, std::size_t opsPerClient);

// --- plan-families -----------------------------------------------------------

/// `count` never-repeated tier-A keys, n log-uniform in [128, 1024].
std::vector<pushpart::PlanRequest> planFamiliesStream(std::uint64_t seed,
                                                      std::size_t count);

// --- exec --------------------------------------------------------------------

/// Matrix size of every exec op: small enough for about 50 ops in a run, so
/// the median and a p75 tail are steady (the North-star probe keeps n = 768).
inline constexpr int kExecN = 576;

struct ExecOp {
  pushpart::CandidateShape shape = pushpart::CandidateShape::kSquareCorner;
  pushpart::Ratio ratio{4, 1, 1};
  pushpart::Algo algo = pushpart::Algo::kSCB;
  int n = kExecN;
  std::uint64_t matrixSeed = 1;
};
/// Link bandwidth the executor's emulated communication phase is charged at.
inline constexpr double kExecBandwidthMBs = 100.0;
/// Distinct (shape, ratio, algorithm) configurations the exec stream cycles.
inline constexpr std::size_t kExecConfigs = 8;

/// `count` ops cycling {Square-Corner, Block-Rectangle} x {4:1:1, 12:1:1} x
/// {SCB, PCB}. Consecutive ops alternate the ratio, so any even-length
/// prefix holds both ratios equally often; the seed picks the order of the
/// remaining configuration within each cycle and every op's input matrices.
std::vector<ExecOp> execStream(std::uint64_t seed, std::size_t count);

// --- determinism -------------------------------------------------------------

/// Canonical text of a stream (doubles as %.17g): the byte-identity check.
std::string streamText(const ServeMixStream& s);
std::string streamText(const std::vector<pushpart::PlanRequest>& s);
std::string streamText(const std::vector<ExecOp>& s);

}  // namespace pushbench
