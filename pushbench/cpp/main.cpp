// pushbench: runs one benchmark workload and prints its metrics.
//
//   pushbench --workload <serve-mix|plan-families|exec> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones and writes <dir>/trace-<workload>-seed<n>.json. Exit
// status 0 means every op succeeded and every check held; 1 means a check or
// op failed (the result line says which counts); 2 is a usage error.
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "support/flags.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "pushbench: " << why
            << "\nusage: pushbench --workload <serve-mix|plan-families|exec>"
               " --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pushbench::RunConfig cfg;
  try {
    const pushpart::Flags flags(argc, argv);
    for (const std::string& name : flags.names())
      if (name != "workload" && name != "seed" && name != "seconds" &&
          name != "trace" && name != "out")
        return usage("unknown flag --" + name);
    if (!pushbench::parseWorkload(flags.str("workload", ""), cfg.workload))
      return usage("--workload must name one of the workloads");
    const std::int64_t seed = flags.i64("seed", 1);
    if (seed < 0) return usage("--seed must be non-negative");
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.seconds = flags.f64("seconds", cfg.seconds);
    cfg.trace = flags.i64("trace", 0) != 0;
    cfg.outDir = flags.str("out", cfg.outDir);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  std::error_code ec;
  std::filesystem::create_directories(cfg.outDir, ec);
  if (ec) return usage("cannot create " + cfg.outDir + ": " + ec.message());

  pushbench::RunResult result;
  try {
    result = pushbench::runWorkload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "pushbench: " << pushbench::workloadName(cfg.workload)
              << " aborted: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::cout << result.metrics.text();
  std::cout << pushbench::resultLine(result.correct, result.attempted,
                                     result.failed, result.metrics)
            << std::endl;
  return result.correct ? 0 : 1;
}
