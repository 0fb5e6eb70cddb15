// E12 — serving-layer load generator: the plan oracle under concurrent,
// skewed traffic.
//
// The ROADMAP's north star is a system that answers "which shape should
// these processors use?" at production request rates. This harness drives
// src/serve's Oracle from many threads with a Zipf-skewed key popularity
// (a hot set dominates, a long tail forces cold solves and evictions),
// mixing tier-A (ranked candidates) and tier-B (DFA-search-backed)
// requests, then reports QPS, cache hit rate and per-tier latency
// percentiles. A calibration pass measures one uncached tier-B solve at
// --cold-n so the report can state the headline ratio: how much faster a
// hot-key cache hit is than recomputing the search-backed answer.
//
// Self-check (RESULT line): every request answered, the hot set actually
// hit, and hot-key hits at least 100x faster than the tier-B cold solve.
// Machine-readable output: --json=BENCH_serve.json (written by default).
//
//   ./serve_loadgen [--threads=8] [--requests=12000] [--keys=48] [--skew=1.0]
//                   [--n=120] [--runs=3] [--tierb-every=4] [--capacity=4096]
//                   [--cold-n=1000] [--cold-runs=1] [--seed=1]
//                   [--bandwidth-mbs=1000] [--flops=1e9]
//                   [--json=BENCH_serve.json]
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/oracle.hpp"
#include "support/flags.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

/// Builds the deterministic key universe: ratios cycle through the paper's
/// eleven, n through three sizes, algorithms through all five; every
/// `tierbEvery`-th key asks for the search-backed tier.
std::vector<PlanRequest> buildUniverse(int keys, int baseN, int runs,
                                       int tierbEvery) {
  const auto& ratios = paperRatios();
  const std::array<int, 3> ns = {baseN / 2, (3 * baseN) / 4, baseN};
  std::vector<PlanRequest> universe;
  universe.reserve(static_cast<std::size_t>(keys));
  for (int i = 0; i < keys; ++i) {
    PlanRequest req;
    req.ratio = ratios[static_cast<std::size_t>(i) % ratios.size()];
    req.n = std::max(12, ns[static_cast<std::size_t>(i / 11) % ns.size()]);
    req.algo = kAllAlgos[static_cast<std::size_t>(i) % kAllAlgos.size()];
    if (tierbEvery > 0 && i % tierbEvery == tierbEvery - 1) {
      req.tier = PlanTier::kSearch;
      req.searchRuns = runs;
    }
    universe.push_back(req);
  }
  return universe;
}

/// Zipf CDF over ranks 1..K with exponent `skew`: key 0 is the hottest.
std::vector<double> zipfCdf(std::size_t keys, double skew) {
  std::vector<double> cdf(keys);
  double total = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::string jsonHistogram(const LatencyHistogram::Snapshot& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"count\": %llu, \"p50_s\": %.9g, \"p95_s\": %.9g, "
                "\"p99_s\": %.9g}",
                static_cast<unsigned long long>(h.count), h.p50, h.p95,
                h.p99);
  return buf;
}

int mainBody(const Flags& flags) {
  const int threads =
      std::max(1, flags.i32("threads", 8));
  const std::int64_t requests = flags.i64("requests", 12000);
  const int keys = std::max(1, flags.i32("keys", 48));
  const double skew = flags.f64("skew", 1.0);
  const int baseN = flags.i32("n", 120);
  const int runs = std::max(1, flags.i32("runs", 3));
  const int tierbEvery = flags.i32("tierb-every", 4);
  const int coldN = flags.i32("cold-n", 1000);
  const int coldRuns = std::max(1, flags.i32("cold-runs", 1));
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  const std::string jsonPath = flags.str("json", "BENCH_serve.json");

  OracleOptions options;
  options.machine.sendElementSeconds =
      8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);
  options.machine.baseFlopSeconds = 1.0 / flags.f64("flops", 1e9);
  options.cacheCapacity =
      static_cast<std::size_t>(flags.i64("capacity", 4096));
  Oracle oracle(options);

  const std::vector<PlanRequest> universe =
      buildUniverse(keys, baseN, runs, tierbEvery);
  const std::vector<double> cdf = zipfCdf(universe.size(), skew);

  std::cout << "E12 (serving): " << requests << " requests, " << threads
            << " threads, " << keys << " keys (Zipf skew " << skew
            << "), tier-B budget " << runs << " walks\n\n";

  // --- Load phase ---------------------------------------------------------
  std::atomic<std::int64_t> answered{0};
  std::atomic<std::int64_t> failed{0};
  LatencyHistogram endToEnd;
  Stopwatch wall;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  const Rng master(seed);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      Rng rng = master.split(static_cast<std::uint64_t>(t));
      const std::int64_t share =
          requests / threads + (t < requests % threads ? 1 : 0);
      for (std::int64_t i = 0; i < share; ++i) {
        const double u = rng.real();
        const std::size_t idx = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        try {
          const PlanResponse r =
              oracle.plan(universe[std::min(idx, universe.size() - 1)]);
          endToEnd.record(r.latencySeconds);
          answered.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  const double wallSeconds = wall.seconds();
  const double qps = static_cast<double>(answered.load()) / wallSeconds;

  // --- Calibration: one uncached tier-B solve -----------------------------
  PlanRequest cold;
  cold.n = coldN;
  cold.ratio = Ratio{5, 2, 1};
  cold.algo = Algo::kSCB;
  cold.tier = PlanTier::kSearch;
  cold.searchRuns = coldRuns;
  cold.searchSeed = seed;
  const PlanAnswer coldAnswer = oracle.solveUncached(cold);

  // --- Report -------------------------------------------------------------
  const OracleStats stats = oracle.stats();
  const double hitRate = answered.load() > 0
                             ? static_cast<double>(stats.cache.hits) /
                                   static_cast<double>(answered.load())
                             : 0.0;
  const double hotP50 = stats.hitLatency.p50;
  const double speedup =
      hotP50 > 0.0 ? coldAnswer.solveSeconds / hotP50 : 0.0;

  Table table({"metric", "value"});
  table.addRow("answered", {static_cast<double>(answered.load())});
  table.addRow("QPS", {qps});
  table.addRow("hit rate", {hitRate});
  table.addRow("hits", {static_cast<double>(stats.cache.hits)});
  table.addRow("misses", {static_cast<double>(stats.cache.misses)});
  table.addRow("coalesced", {static_cast<double>(stats.cache.coalesced)});
  table.addRow("evictions", {static_cast<double>(stats.cache.evictions)});
  table.addRow("hit p50 (us)", {stats.hitLatency.p50 * 1e6});
  table.addRow("hit p99 (us)", {stats.hitLatency.p99 * 1e6});
  table.addRow("tier-A solve p50 (us)", {stats.tierASolves.p50 * 1e6});
  table.addRow("tier-B solve p50 (us)", {stats.tierBSolves.p50 * 1e6});
  table.addRow("cold tier-B solve (s)", {coldAnswer.solveSeconds});
  table.addRow("hot-hit speedup vs cold B", {speedup});
  table.print(std::cout);

  // --- BENCH_serve.json ---------------------------------------------------
  {
    std::ofstream out(jsonPath);
    if (!out) {
      std::cerr << "cannot write " << jsonPath << "\n";
      return 1;
    }
    char head[512];
    std::snprintf(head, sizeof(head),
                  "{\n"
                  "  \"bench\": \"serve_loadgen\",\n"
                  "  \"threads\": %d,\n"
                  "  \"requests\": %lld,\n"
                  "  \"answered\": %lld,\n"
                  "  \"failed\": %lld,\n"
                  "  \"keys\": %d,\n"
                  "  \"skew\": %.6g,\n"
                  "  \"wall_seconds\": %.9g,\n"
                  "  \"qps\": %.9g,\n",
                  threads, static_cast<long long>(requests),
                  static_cast<long long>(answered.load()),
                  static_cast<long long>(failed.load()), keys, skew,
                  wallSeconds, qps);
    char counters[512];
    std::snprintf(
        counters, sizeof(counters),
        "  \"hits\": %llu,\n  \"misses\": %llu,\n  \"coalesced\": %llu,\n"
        "  \"evictions\": %llu,\n  \"hit_rate\": %.9g,\n",
        static_cast<unsigned long long>(stats.cache.hits),
        static_cast<unsigned long long>(stats.cache.misses),
        static_cast<unsigned long long>(stats.cache.coalesced),
        static_cast<unsigned long long>(stats.cache.evictions), hitRate);
    char tail[512];
    std::snprintf(tail, sizeof(tail),
                  "  \"cold\": {\"n\": %d, \"runs\": %d, "
                  "\"solve_seconds\": %.9g},\n"
                  "  \"hot_hit_p50_seconds\": %.9g,\n"
                  "  \"speedup_hot_vs_cold_b\": %.9g\n"
                  "}\n",
                  coldN, coldRuns, coldAnswer.solveSeconds, hotP50, speedup);
    out << head << counters
        << "  \"end_to_end\": " << jsonHistogram(endToEnd.snapshot()) << ",\n"
        << "  \"hit_latency\": " << jsonHistogram(stats.hitLatency) << ",\n"
        << "  \"tier_a_solve\": " << jsonHistogram(stats.tierASolves) << ",\n"
        << "  \"tier_b_solve\": " << jsonHistogram(stats.tierBSolves) << ",\n"
        << tail;
    std::cout << "\nreport written to " << jsonPath << "\n";
  }

  const bool ok = failed.load() == 0 && answered.load() == requests &&
                  stats.cache.hits > 0 && speedup >= 100.0;
  std::cout << (ok ? "\nRESULT: served every request; hot-key hits >= 100x "
                     "faster than the tier-B cold path.\n"
                   : "\nRESULT: serving targets missed.\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return runMain(argc, argv, mainBody); }
