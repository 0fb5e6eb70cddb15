// E10 — extension of paper §XI: the effect of communication latency.
//
// The paper's models are bandwidth-only (β·M); its conclusion lists
// "communication latency" as an open modelling avenue. This harness
// quantifies it on the discrete-event simulator: for the PIO algorithm, the
// per-message latency α makes fine-grained pivot interleaving expensive, and
// grouping pivots into blocks ("k rows and columns at a time", §II) trades
// pipelining overlap against message count. Expected shape: with α = 0 the
// classic blockSize = 1 is optimal (or tied); as α grows the optimal block
// size grows, approaching bulk exchange for very high-latency networks.
//
//   ./latency_ablation [--n=128] [--ratio=5:2:1] [--shape=Block-Rectangle]
//                      [--bandwidth-mbs=1000] [--flops=1e9]
#include <cstdio>
#include <iostream>
#include <limits>
#include <vector>

#include "shapes/candidates.hpp"
#include "support/csv.hpp"
#include "sim/mmm_sim.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

int mainBody(const Flags& flags) {
  const int n = flags.i32("n", 128);
  const Ratio ratio = Ratio::parse(flags.str("ratio", "5:2:1"));
  const CandidateShape shape =
      candidateFromName(flags.str("shape", "Block-Rectangle"));
  if (!candidateFeasible(shape, n, ratio)) {
    std::cerr << "infeasible shape for this ratio\n";
    return 1;
  }
  const Partition q = makeCandidate(shape, n, ratio);

  SimOptions opts;
  opts.machine.ratio = ratio;
  opts.machine.sendElementSeconds =
      8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);
  opts.machine.baseFlopSeconds = 1.0 / flags.f64("flops", 1e9);

  const std::vector<double> alphasUs = {0.0, 1.0, 10.0, 100.0, 1000.0};
  const std::vector<int> blocks = {1, 2, 4, 8, 16, 32, n};

  std::cout << "E10 (extends paper Sec. XI): PIO exec seconds vs per-message "
               "latency and pivot block size\n"
            << candidateName(shape) << ", n=" << n << ", ratio "
            << ratio.str() << "\n\n";

  std::vector<std::string> header{"alpha (us)"};
  for (int b : blocks) header.push_back("b=" + std::to_string(b));
  header.push_back("best b");
  Table table(header);

  std::vector<int> bestBlocks;
  for (double alphaUs : alphasUs) {
    opts.machine.alphaSeconds = alphaUs * 1e-6;
    std::vector<std::string> row{formatNumber(alphaUs)};
    double best = std::numeric_limits<double>::infinity();
    int bestB = 0;
    for (int b : blocks) {
      opts.pioBlockSize = b;
      const double exec = simulateMMM(Algo::kPIO, q, opts).execSeconds;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.5f", exec);
      row.push_back(buf);
      if (exec < best) {
        best = exec;
        bestB = b;
      }
    }
    row.push_back(std::to_string(bestB));
    bestBlocks.push_back(bestB);
    table.addRow(row);
  }
  table.print(std::cout);

  // Shape check: the optimal block size is non-decreasing in latency, and
  // high latency prefers strictly coarser blocks than zero latency.
  bool monotone = true;
  for (std::size_t i = 1; i < bestBlocks.size(); ++i)
    if (bestBlocks[i] < bestBlocks[i - 1]) monotone = false;
  const bool coarsens = bestBlocks.back() > bestBlocks.front();
  std::cout << (monotone && coarsens
                    ? "\nRESULT: optimal PIO block size grows with latency — "
                      "latency-aware blocking matters, as the paper's "
                      "future-work note anticipated.\n"
                    : "\nRESULT: unexpected latency response.\n");
  return (monotone && coarsens) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
