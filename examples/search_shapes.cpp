// Run the paper's DFA search and watch partitions condense (paper §V–VII).
//
//   ./search_shapes [--n=60] [--ratio=2:1:1] [--runs=12] [--seed=3]
//                   [--trace] [--threads=0]
//
// Performs `runs` randomized walks (random q0, random push schedule) and
// tallies the archetypes of the condensed shapes — a small-scale rerun of
// the experiment behind the paper's Fig. 5. With --trace, the first run also
// prints snapshots of the partition as it condenses (Fig. 7 style).
#include <cstdio>
#include <iostream>

#include "dfa/batch.hpp"
#include "grid/builder.hpp"
#include "grid/render.hpp"
#include "shapes/archetype.hpp"
#include "support/flags.hpp"

using namespace pushpart;

namespace {

int mainBody(const Flags& flags) {
  BatchOptions options;
  options.n = flags.i32("n", 60);
  options.ratio = Ratio::parse(flags.str("ratio", "2:1:1"));
  options.runs = flags.i32("runs", 12);
  options.threads = flags.i32("threads", 0);
  options.seed = static_cast<std::uint64_t>(flags.i64("seed", 3));
  const bool trace = flags.b("trace", false);

  std::cout << "DFA search: n=" << options.n << " ratio=" << options.ratio.str()
            << " runs=" << options.runs << "\n\n";

  int tally[kNumArchetypes] = {};
  std::int64_t totalPushes = 0;
  const BatchSummary summary = runBatch(options, [&](const BatchRun& run) {
    const ArchetypeInfo info = classifyArchetype(run.result.final);
    ++tally[static_cast<int>(info.archetype)];
    totalPushes += run.result.pushesApplied;
    std::printf("run %2d  schedule[%-40s]  pushes=%6lld  VoC %8lld -> %8lld  "
                "archetype %s\n",
                run.runIndex, run.schedule.str().c_str(),
                static_cast<long long>(run.result.pushesApplied),
                static_cast<long long>(run.result.vocStart),
                static_cast<long long>(run.result.vocEnd),
                archetypeName(info.archetype));
  });

  std::cout << "\nArchetype tally (paper Fig. 5: only A-D should appear):\n";
  for (int a = 0; a < kNumArchetypes; ++a) {
    std::printf("  %-8s %d\n", archetypeName(static_cast<Archetype>(a)),
                tally[a]);
  }
  std::printf("total pushes applied: %lld\n",
              static_cast<long long>(totalPushes));
  for (const BatchFailure& f : summary.failures)
    std::fprintf(stderr, "run %d failed: %s\n", f.runIndex, f.message.c_str());

  if (trace) {
    std::cout << "\n== Example run trace (Fig. 7 style) ==\n";
    Rng rng(options.seed);
    Schedule schedule = Schedule::random(rng);
    DfaOptions dfaOpts;
    dfaOpts.traceEvery = std::max(1, options.n / 2);
    dfaOpts.traceCells = 30;
    const auto result = runDfa(
        randomPartition(options.n, options.ratio, rng), schedule, dfaOpts);
    std::cout << "schedule: " << schedule.str() << "\n";
    for (const TraceSnapshot& snap : result.trace) {
      std::printf("\nafter %lld pushes (VoC %lld):\n",
                  static_cast<long long>(snap.pushesApplied),
                  static_cast<long long>(snap.voc));
      std::cout << snap.art;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
