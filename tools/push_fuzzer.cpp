// push_fuzzer — long-running counterexample hunter for Postulate 1.
//
// The paper's evidence for Postulate 1 ("no arrangement exists that the Push
// cannot improve, except the archetypes of Fig. 5") is volume of testing:
// ~10,000 randomized DFA runs per ratio. This tool industrialises that
// hunt: it runs randomized condensations across random ratios, grid sizes
// and start-state styles until a time/run budget expires, classifies every
// condensed output, validates the engine's invariants along the way, and
// dumps any Unknown shape (a counterexample candidate) to disk for forensic
// inspection with `pushpart classify`.
//
//   ./push_fuzzer [--seconds=30] [--max-runs=0 (unlimited)] [--seed=1]
//                 [--min-n=24] [--max-n=96] [--threads=0]
//                 [--dump-dir=.] [--validate-every=50]
//                 [--log-level=debug|info|warn|error]
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dfa/dfa.hpp"
#include "grid/builder.hpp"
#include "grid/serialize.hpp"
#include "shapes/archetype.hpp"
#include "shapes/transform.hpp"
#include "support/flags.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "verify/invariants.hpp"

using namespace pushpart;

namespace {

Ratio randomRatio(Rng& rng) {
  // P_r in [1, 12], R_r in [1, P_r], S_r = 1 — covering and exceeding the
  // paper's eleven ratios.
  const double p = 1.0 + rng.real() * 11.0;
  const double r = 1.0 + rng.real() * (p - 1.0);
  return Ratio{p, r, 1.0};
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  try {
    setLogLevel(parseLogLevel(flags.str("log-level", "info")));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const double seconds = flags.f64("seconds", 30.0);
  const auto maxRuns = flags.i64("max-runs", 0);
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  const int minN = flags.i32("min-n", 24);
  const int maxN = flags.i32("max-n", 96);
  if (minN < 3 || maxN < minN) {
    std::fprintf(stderr,
                 "error: need 3 <= --min-n <= --max-n (got %d and %d)\n", minN,
                 maxN);
    return 2;
  }
  const std::string dumpDir = flags.str("dump-dir", ".");
  const auto validateEvery = flags.i64("validate-every", 50);
  const unsigned hw = std::thread::hardware_concurrency();
  const int threadsFlag = flags.i32("threads", 0);
  const int threads =
      threadsFlag > 0 ? threadsFlag : static_cast<int>(hw > 0 ? hw : 2);

  std::printf("push_fuzzer: hunting Postulate 1 counterexamples for %.0f s "
              "on %d threads (n in [%d, %d])\n",
              seconds, threads, minN, maxN);

  Stopwatch wall;
  std::atomic<std::int64_t> runs{0};
  std::atomic<std::int64_t> pushes{0};
  std::atomic<int> unknowns{0};
  std::atomic<int> dominanceViolations{0};
  std::atomic<int> invariantViolations{0};
  std::atomic<bool> stop{false};
  std::mutex reportMutex;
  int tally[kNumArchetypes] = {};

  const Rng master(seed);
  auto worker = [&](int workerIndex) {
    Rng rng = master.split(static_cast<std::uint64_t>(workerIndex));
    while (!stop.load(std::memory_order_relaxed)) {
      const std::int64_t run = runs.fetch_add(1);
      if ((maxRuns > 0 && run >= maxRuns) || wall.seconds() >= seconds) {
        stop = true;
        break;
      }
      const int n =
          minN + static_cast<int>(rng.below(
                     static_cast<std::uint64_t>(maxN - minN + 1)));
      const Ratio ratio = randomRatio(rng);
      const Schedule schedule = Schedule::random(rng);
      Partition q0 = rng.chance(0.3)
                         ? randomClusteredPartition(n, ratio, rng)
                         : randomPartition(n, ratio, rng);
      // Every validateEvery-th run goes through the shared checker library
      // (src/verify), which needs the start state to check conservation and
      // VoC bookkeeping across the whole condensation.
      const bool validate = validateEvery > 0 && run % validateEvery == 0;
      std::optional<Partition> start;
      if (validate) start = q0;
      const DfaResult result = runDfa(std::move(q0), schedule, {});
      pushes += result.pushesApplied;

      if (validate) {
        const CheckReport report = checkDfaRun(*start, result);
        if (!report.ok()) {
          invariantViolations.fetch_add(1);
          std::lock_guard<std::mutex> lock(reportMutex);
          std::printf("INVARIANT VIOLATION at run %lld (n=%d ratio=%s): %s\n",
                      static_cast<long long>(run), n, ratio.str().c_str(),
                      report.str().c_str());
        }
        PUSHPART_LOG(kDebug) << "run " << run << ": n=" << n << " ratio="
                             << ratio.str() << " pushes="
                             << result.pushesApplied << " invariants "
                             << (report.ok() ? "ok" : "VIOLATED");
      }

      const ArchetypeInfo info = classifyArchetype(result.final);
      {
        std::lock_guard<std::mutex> lock(reportMutex);
        ++tally[static_cast<int>(info.archetype)];
      }
      if (info.archetype == Archetype::Unknown) {
        const int id = unknowns.fetch_add(1);
        const std::string path =
            dumpDir + "/counterexample_" + std::to_string(id) + ".pp";
        savePartition(result.final, path);
        // The form of Postulate 1 the paper's conclusions rely on: a locked
        // non-archetype state must never *undercut* the canonical
        // candidates. checkCondensedState is the same dominance check the
        // verify suite and the corpus-replay gate run.
        const CheckReport condensed = checkCondensedState(result.final, ratio);
        Partition reduced = result.final;
        const auto reduction = reduceToArchetypeA(reduced, ratio);
        std::lock_guard<std::mutex> lock(reportMutex);
        std::printf("UNKNOWN shape! n=%d ratio=%s schedule=[%s] -> %s\n",
                    n, ratio.str().c_str(), schedule.str().c_str(),
                    path.c_str());
        std::printf("  %s\n", info.str().c_str());
        if (condensed.ok()) {
          std::printf(
              "  locked state, but candidate %s dominates (VoC %lld <= "
              "%lld) — weak Postulate 1 holds\n",
              candidateName(reduction->shape),
              static_cast<long long>(reduction->vocAfter),
              static_cast<long long>(reduction->vocBefore));
        } else {
          std::printf("  checker: %s\n", condensed.str().c_str());
          std::printf(
              "  !!! state escapes the canonical-candidate dominance check — "
              "candidate-optimality refutation, please report\n");
          dominanceViolations.fetch_add(1);
        }
      }
    }
  };

  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();

  std::printf("\n%lld runs, %lld pushes in %.1f s\n",
              static_cast<long long>(runs.load()),
              static_cast<long long>(pushes.load()), wall.seconds());
  for (int a = 0; a < kNumArchetypes; ++a)
    std::printf("  %-8s %d\n", archetypeName(static_cast<Archetype>(a)),
                tally[a]);
  if (invariantViolations.load() > 0) {
    std::printf("%d engine invariant violation(s) — see log above\n",
                invariantViolations.load());
    return 2;
  }
  if (unknowns.load() == 0) {
    std::printf("no counterexample found — Postulate 1 survives this hunt\n");
    return 0;
  }
  std::printf("%d locked non-archetype state(s) dumped — inspect with "
              "`pushpart classify --in=<file>`\n",
              unknowns.load());
  if (dominanceViolations.load() > 0) {
    std::printf("%d state(s) UNDERCUT the canonical candidates — "
                "optimality refutation!\n",
                dominanceViolations.load());
    return 2;
  }
  std::printf("every locked state was dominated by a canonical candidate — "
              "the weak form of Postulate 1 holds\n");
  return 1;
}
