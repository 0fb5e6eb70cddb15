// E2 — paper Fig. 7: snapshots of one DFA run condensing a random start.
//
// The paper shows a 2:1:1 run at N = 1000 with R pushed {Down, Right} and S
// pushed {Down, Left}, rendered at 1/100 granularity after ~1, 500, 1000,
// 1500 and 2100 steps. This harness reruns exactly that schedule (default
// n = 100 for speed; --n=1000 restores the paper's size) and prints the
// partitions at evenly spaced push counts. Reproduction criterion: scattered
// noise condenses into compact R and S regions in the scheduled corners, and
// the final state classifies as one of archetypes A–D.
//
//   ./fig7_trace [--n=100] [--ratio=2:1:1] [--seed=2] [--snapshots=5]
#include <cstdio>
#include <iostream>

#include "dfa/dfa.hpp"
#include "grid/builder.hpp"
#include "shapes/archetype.hpp"
#include "support/flags.hpp"

using namespace pushpart;

namespace {

int mainBody(const Flags& flags) {
  const int n = flags.i32("n", 100);
  const Ratio ratio = Ratio::parse(flags.str("ratio", "2:1:1"));
  const auto snapshots = flags.i64("snapshots", 5);
  Rng rng(static_cast<std::uint64_t>(flags.i64("seed", 2)));

  // The paper's example schedule: R -> {Down, Right}, S -> {Down, Left}.
  Schedule schedule;
  schedule.slots = {{Proc::R, Direction::Down},
                    {Proc::S, Direction::Down},
                    {Proc::R, Direction::Right},
                    {Proc::S, Direction::Left}};

  std::cout << "E2 (paper Fig. 7): example DFA run, ratio " << ratio.str()
            << ", n=" << n << ", schedule " << schedule.str() << "\n";

  // Dry run to learn the total push count so snapshots space out evenly.
  Rng probeRng = rng;
  DfaOptions probeOpts;
  const auto probe =
      runDfa(randomPartition(n, ratio, probeRng), schedule, probeOpts);

  DfaOptions opts;
  opts.traceEvery = std::max<std::int64_t>(
      1, probe.pushesApplied / std::max<std::int64_t>(1, snapshots - 1));
  opts.traceCells = 30;
  const auto result = runDfa(randomPartition(n, ratio, rng), schedule, opts);

  for (const TraceSnapshot& snap : result.trace) {
    std::printf("\n-- after %lld pushes, VoC %lld --\n",
                static_cast<long long>(snap.pushesApplied),
                static_cast<long long>(snap.voc));
    std::cout << snap.art;
  }

  const auto info = classifyArchetype(result.final);
  std::printf("\nstop=%s  pushes=%lld  VoC %lld -> %lld\n",
              dfaStopName(result.stop),
              static_cast<long long>(result.pushesApplied),
              static_cast<long long>(result.vocStart),
              static_cast<long long>(result.vocEnd));
  std::cout << "final classification: " << info.str() << "\n";
  std::cout << (info.archetype != Archetype::Unknown
                    ? "RESULT: condensed to a recognizable archetype "
                      "(matches paper Fig. 7 behaviour).\n"
                    : "RESULT: unknown shape — investigate.\n");
  return info.archetype != Archetype::Unknown ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
