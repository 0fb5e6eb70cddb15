// Beyond three processors: condense a four-processor partition with the
// generalized Push engine (paper §XI: "the ultimate aim is to determine the
// optimal data partitioning shape ... for any number of heterogeneous
// processors").
//
//   ./four_processors [--n=40] [--speeds=8:4:2:1] [--seed=11]
#include <cstdio>
#include <iostream>

#include "nproc/nsearch.hpp"
#include "support/flags.hpp"

using namespace pushpart;

namespace {

// Coarse ASCII rendering for k processors: digits by owner index.
void render(const NPartition& q, int maxCells) {
  const int blocks = std::min(q.n(), maxCells);
  for (int bi = 0; bi < blocks; ++bi) {
    const int i0 = bi * q.n() / blocks, i1 = (bi + 1) * q.n() / blocks;
    for (int bj = 0; bj < blocks; ++bj) {
      const int j0 = bj * q.n() / blocks, j1 = (bj + 1) * q.n() / blocks;
      std::vector<int> tally(static_cast<std::size_t>(q.procs()), 0);
      for (int i = i0; i < i1; ++i)
        for (int j = j0; j < j1; ++j)
          ++tally[static_cast<std::size_t>(q.at(i, j))];
      int best = 0;
      for (int p = 1; p < q.procs(); ++p)
        if (tally[static_cast<std::size_t>(p)] >
            tally[static_cast<std::size_t>(best)])
          best = p;
      std::putchar(best == 0 ? '.' : static_cast<char>('0' + best));
    }
    std::putchar('\n');
  }
}

int mainBody(const Flags& flags) {
  const int n = flags.i32("n", 40);
  const auto speeds = NSpeeds::parse(flags.str("speeds", "8:4:2:1"));
  Rng rng(static_cast<std::uint64_t>(flags.i64("seed", 11)));

  std::cout << "Condensing a " << n << "x" << n << " matrix over "
            << speeds.speeds.size() << " processors with speeds "
            << speeds.str() << "\n\n";

  NPartition q0 = randomNPartition(n, speeds, rng);
  std::cout << "start (VoC " << q0.volumeOfCommunication() << "):\n";
  render(q0, 40);

  Rng searchRng(static_cast<std::uint64_t>(flags.i64("seed", 11)));
  const NSearchResult result = runNSearch(n, speeds, searchRng);

  std::cout << "\ncondensed after " << result.pushesApplied << " pushes (VoC "
            << result.vocEnd << "):\n";
  render(result.final, 40);

  std::printf(
      "\n%d of %d slow processors ended asymptotically rectangular; "
      "%d overlapping rectangle pairs; VoC shrank %.0f%%\n",
      result.stats.rectangularProcs, result.stats.slowProcs,
      result.stats.overlappingPairs,
      100.0 * (1.0 - static_cast<double>(result.vocEnd) /
                         static_cast<double>(result.vocStart)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
