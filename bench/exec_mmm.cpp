// E7 — Fig. 14 analogue on the real executor: threaded kij MMM with
// duty-cycle throttled workers.
//
// The paper measured Square-Corner vs Block-Rectangle on three real nodes
// whose speed ratio was enforced by a /proc CPU limiter. This harness does
// the shared-memory equivalent: three threads compute their partitions of a
// real double-precision MMM, throttled to the ratio, with the communication
// phase charged by the Hockney model. It reports measured wall/compute
// seconds per shape, the comm/compute split of each run, each worker's
// kernel throughput (owned MACs over its pure-compute seconds, throttle
// sleeps excluded), and verifies every product bit-exact against the serial
// reference. Reproduction criteria: results verify exactly and emulated
// comm of SC drops below BR as P_r grows.
//
//   ./exec_mmm [--n=192] [--bandwidth-mbs=100] [--ratios=4:1:1,12:1:1]
//
// The high-heterogeneity point is 12:1:1 rather than 10:1:1 because the
// Fig. 13 crossover for R_r = S_r = 1 sits at P_r = 9.66 — at exactly
// 10:1:1 integer rounding of the square sides makes the comparison a
// coin flip at small n.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <vector>

#include <algorithm>

#include "exec/kij_executor.hpp"
#include "shapes/candidates.hpp"
#include "support/csv.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

int mainBody(const Flags& flags) {
  const int n = flags.i32("n", 192);

  std::vector<Ratio> ratios;
  {
    std::istringstream in(flags.str("ratios", "4:1:1,12:1:1"));
    std::string token;
    while (std::getline(in, token, ',')) ratios.push_back(Ratio::parse(token));
  }

  Machine machine;
  machine.sendElementSeconds = 8.0 / (flags.f64("bandwidth-mbs", 100.0) * 1e6);

  std::cout << "E7 (Fig. 14 analogue, real executor): threaded kij MMM, "
               "n=" << n << ", throttled workers\n\n";

  // compute (s) is the measured wall time of the threaded compute phase;
  // comm (s) is the emulated Hockney duration of the transfers before it.
  Table table({"ratio", "shape", "comm (s)", "compute (s)", "comm %",
               "P GMAC/s", "R GMAC/s", "S GMAC/s", "max|err|"});
  bool allVerified = true;
  bool scWinsCommAtHighHet = false;
  for (const Ratio& ratio : ratios) {
    machine.ratio = ratio;
    double scComm = -1, brComm = -1;
    for (CandidateShape shape :
         {CandidateShape::kSquareCorner, CandidateShape::kBlockRectangle}) {
      if (!candidateFeasible(shape, n, ratio)) continue;
      const Partition q = makeCandidate(shape, n, ratio);
      ExecOptions opts;
      opts.machine = machine;
      opts.verify = true;
      const ExecResult r = runParallelMMM(Algo::kSCB, q, opts);
      allVerified = allVerified && r.verified && r.maxAbsError == 0.0;
      if (shape == CandidateShape::kSquareCorner) scComm = r.commSeconds;
      if (shape == CandidateShape::kBlockRectangle) brComm = r.commSeconds;
      char err[32];
      std::snprintf(err, sizeof(err), "%.1e", r.maxAbsError);
      char share[32];
      std::snprintf(share, sizeof(share), "%.1f",
                    100.0 * r.commSeconds / (r.commSeconds + r.wallSeconds));
      std::vector<std::string> row = {ratio.str(), candidateName(shape),
                                      formatNumber(r.commSeconds),
                                      formatNumber(r.wallSeconds), share};
      for (Proc x : kAllProcs) {
        const double busy = r.computeSeconds[procSlot(x)];
        const double macs = static_cast<double>(q.count(x)) * n;
        char gmacs[32];
        std::snprintf(gmacs, sizeof(gmacs), "%.2f",
                      busy > 0.0 ? macs / busy / 1e9 : 0.0);
        row.push_back(gmacs);
      }
      row.push_back(err);
      table.addRow(row);
    }
    if (ratio.p / std::max(ratio.r, ratio.s) >= 11 && scComm > 0 &&
        scComm < brComm)
      scWinsCommAtHighHet = true;
  }
  table.print(std::cout);

  std::cout << (allVerified
                    ? "\nall products verified element-exact against the "
                      "serial kij reference\n"
                    : "\nVERIFICATION FAILURE\n");
  std::cout << (scWinsCommAtHighHet
                    ? "RESULT: Square-Corner communicates less than "
                      "Block-Rectangle at high heterogeneity (matches "
                      "paper Fig. 14).\n"
                    : "RESULT: expected SC comm win not observed.\n");
  return (allVerified && scWinsCommAtHighHet) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
