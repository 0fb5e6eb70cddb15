// Quickstart: build a partition, measure its communication volume, run the
// Push operation, and compare against a canonical candidate shape.
//
//   ./quickstart [--n=30] [--ratio=3:1:1] [--seed=7]
//
// Walks through the library's core types in ~5 minutes of reading:
// Partition / Ratio (grid), tryPush (push), the candidate constructors
// (shapes) and the SCB performance model (model).
#include <cstdio>
#include <iostream>

#include "grid/builder.hpp"
#include "grid/render.hpp"
#include "model/models.hpp"
#include "push/beautify.hpp"
#include "push/push.hpp"
#include "shapes/archetype.hpp"
#include "shapes/candidates.hpp"
#include "support/flags.hpp"

using namespace pushpart;

namespace {

int mainBody(const Flags& flags) {
  const int n = flags.i32("n", 30);
  const Ratio ratio = Ratio::parse(flags.str("ratio", "3:1:1"));
  Rng rng(static_cast<std::uint64_t>(flags.i64("seed", 7)));

  std::cout << "== 1. A random partition of a " << n << "x" << n
            << " matrix over processors P:R:S = " << ratio.str() << " ==\n";
  Partition q = randomPartition(n, ratio, rng);
  std::cout << renderAscii(q, 30);
  std::cout << summaryLine(q) << "\n\n";

  std::cout << "== 2. One Push operation (paper Section IV-A) ==\n";
  const PushOutcome out = tryPush(q, Proc::R, Direction::Down);
  if (out.applied) {
    std::cout << "Pushed R Down using " << pushTypeName(out.type) << ": moved "
              << out.elementsMoved << " elements, VoC " << out.vocBefore
              << " -> " << out.vocAfter << "\n\n";
  } else {
    std::cout << "No legal Push Down on R from this start state.\n\n";
  }

  std::cout << "== 3. Condense fully (beautify: every direction, both "
               "processors) ==\n";
  const BeautifyResult condensed = beautify(q);
  std::cout << renderAscii(q, 30);
  std::cout << condensed.pushesApplied << " pushes, VoC "
            << condensed.vocBefore << " -> " << condensed.vocAfter << "\n";
  std::cout << "Shape classification: " << classifyArchetype(q).str()
            << "\n\n";

  std::cout << "== 4. Compare with the canonical candidates (Fig. 10) ==\n";
  Machine machine;
  machine.ratio = ratio;
  for (CandidateShape shape : kAllCandidates) {
    if (!candidateFeasible(shape, n, ratio)) {
      std::printf("%-24s infeasible for this ratio (Thm 9.1)\n",
                  candidateName(shape));
      continue;
    }
    const Partition candidate = makeCandidate(shape, n, ratio);
    const ModelResult model = evalModel(Algo::kSCB, candidate, machine);
    std::printf("%-24s VoC=%8lld   SCB exec=%.6f s\n", candidateName(shape),
                static_cast<long long>(candidate.volumeOfCommunication()),
                model.execSeconds);
  }
  std::cout << "\nCondensed random shape has VoC " << q.volumeOfCommunication()
            << " — candidates communicate no more than condensed shapes.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
