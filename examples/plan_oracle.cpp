// Embed the partition-plan oracle in-process — the serving layer's library
// API (src/serve), as an application would use it.
//
//   ./plan_oracle [--n=120] [--ratio=5:2:1] [--algo=SCO] [--runs=4]
//
// Issues the same search-backed question three times: cold (a tier-B solve
// runs the budgeted DFA batch), hot (served from the cache), and once as a
// scaled ratio with R/S swapped (5:1:2 scaled by 3 = 15:3:6) to show request
// canonicalization folding equivalent machines onto one cache entry. Prints
// each answer's tier and latency, then the oracle's serving stats.
#include <cstdio>
#include <iostream>

#include "serve/oracle.hpp"
#include "support/flags.hpp"

using namespace pushpart;

namespace {

void show(const char* label, const PlanResponse& r) {
  std::printf("%-28s %-9s %-22s exec %.6gs  VoC %lld  latency %.3gus\n",
              label, r.cacheHit ? "hit" : (r.coalesced ? "coalesced" : "miss"),
              candidateName(r.answer.shape), r.answer.model.execSeconds,
              static_cast<long long>(r.answer.voc),
              r.latencySeconds * 1e6);
}

int mainBody(const Flags& flags) {

  PlanRequest req;
  req.n = flags.i32("n", 120);
  req.ratio = Ratio::parse(flags.str("ratio", "5:2:1"));
  const std::string algoStr = flags.str("algo", "SCO");
  for (Algo a : kAllAlgos)
    if (algoStr == algoName(a)) req.algo = a;
  req.tier = PlanTier::kSearch;
  req.searchRuns = flags.i32("runs", 4);

  Oracle oracle;
  std::cout << "key: " << canonicalize(req).text << "\n\n";

  show("cold (tier-B DFA batch):", oracle.plan(req));
  show("hot (same request):", oracle.plan(req));

  // Same machine, written differently: scale every speed by 3 and swap the
  // R/S labels. Canonicalization folds it onto the entry above.
  PlanRequest alias = req;
  alias.ratio = Ratio{req.ratio.p * 3, req.ratio.s * 3, req.ratio.r * 3};
  show("aliased ratio (scaled):", oracle.plan(alias));

  const OracleStats stats = oracle.stats();
  std::printf(
      "\ncache: %llu hits / %llu misses / %llu coalesced (%zu resident)\n",
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.coalesced),
      stats.cache.entries);
  if (stats.tierBSolves.count > 0)
    std::printf("tier-B solves: %llu, p50 %.3gms\n",
                static_cast<unsigned long long>(stats.tierBSolves.count),
                stats.tierBSolves.p50 * 1e3);

  // The whole point of the serving layer: one solve answered three requests.
  return stats.cache.misses == 1 && stats.cache.hits == 2 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
