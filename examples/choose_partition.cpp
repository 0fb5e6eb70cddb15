// Pick the best data-partition shape for a heterogeneous machine —
// the downstream use case of the paper's whole programme.
//
//   ./choose_partition [--n=120] [--ratio=10:1:1] [--algo=SCB]
//                      [--topology=full|star] [--bandwidth-mbs=1000]
//                      [--flops=1e9]
//
// Ranks the six canonical candidates (paper Fig. 10) under the chosen MMM
// algorithm and network model, prints the predicted times, and renders the
// winner.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "grid/render.hpp"
#include "model/optimal.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

Algo parseAlgo(const std::string& name) {
  for (Algo algo : kAllAlgos)
    if (name == algoName(algo)) return algo;
  throw std::invalid_argument("unknown algorithm '" + name +
                              "' (expected SCB, PCB, SCO, PCO or PIO)");
}

int mainBody(const Flags& flags) {
  const int n = flags.i32("n", 120);
  const Algo algo = parseAlgo(flags.str("algo", "SCB"));
  const std::string topoStr = flags.str("topology", "full");
  const Topology topology =
      topoStr == "star" ? Topology::kStar : Topology::kFullyConnected;

  Machine machine;
  machine.ratio = Ratio::parse(flags.str("ratio", "10:1:1"));
  machine.sendElementSeconds =
      8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);
  machine.baseFlopSeconds = 1.0 / flags.f64("flops", 1e9);

  std::cout << "Ranking candidate shapes for ratio " << machine.ratio.str()
            << ", algorithm " << algoName(algo) << ", "
            << topologyName(topology) << " topology, n=" << n << "\n\n";

  const auto ranked = rankCandidates(algo, n, machine, topology);
  Table table({"shape", "VoC", "comm (s)", "overlap (s)", "comp (s)",
               "exec (s)"});
  for (const RankedCandidate& r : ranked) {
    table.addRow(candidateName(r.shape),
                 {static_cast<double>(r.voc), r.model.commSeconds,
                  r.model.overlapSeconds, r.model.compSeconds,
                  r.model.execSeconds});
  }
  table.print(std::cout);

  if (!ranked.empty()) {
    const auto& best = ranked.front();
    std::cout << "\nRecommended: " << candidateName(best.shape) << "\n\n";
    const Partition q = makeCandidate(best.shape, n, machine.ratio);
    std::cout << renderAscii(q, 30);
  }

  std::cout << "\n(Shapes missing from the table are infeasible for this "
               "ratio — e.g. the Square-Corner below the Thm 9.1 boundary "
               "P_r > 2*sqrt(R_r*S_r).)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
