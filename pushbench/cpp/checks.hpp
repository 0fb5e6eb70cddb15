// Correctness checks run on recorded answers after the timed phase.
//
// Each check takes plain recorded values, so the self-test can plant a wrong
// answer and confirm it is caught. A failing op is counted as failed and
// fails the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfa/dfa.hpp"
#include "exec/kij_executor.hpp"
#include "model/machine.hpp"
#include "serve/answer.hpp"
#include "serve/request.hpp"

namespace pushbench {

/// Collected check failures (one message per failed op).
struct CheckLog {
  std::vector<std::string> failures;
  void fail(std::string message) { failures.push_back(std::move(message)); }
  bool ok() const { return failures.empty(); }
};

/// One answer a plan workload received, tagged by how it was served.
struct ServedRecord {
  std::string key;             ///< Canonical key text.
  pushpart::PlanRequest request;  ///< As sent (not canonicalized).
  pushpart::PlanAnswer answer;
  bool cold = false;           ///< Solved by this call (no hit, no join).
  double latency = 0.0;        ///< Seconds in plan().
};

/// `k` distinct indices of [0, size), a seeded sample, ascending.
std::vector<std::size_t> sampleIndices(std::size_t size, std::size_t k,
                                       std::uint64_t seed);

/// A cold answer the live search produced (tier B, not an atlas certificate).
bool liveSearch(const ServedRecord& r);

/// Full fidelity at the requested tier (an atlas certificate stands in for
/// the tier-B batch): no answer in these workloads may be degraded.
bool fullyServed(const pushpart::PlanAnswer& a);

/// Cache replay check: every cold answer of a key agrees with the key's
/// snapshot-loaded answer, or else its first cold answer, on everything but
/// the solve time (an evicted key is solved again), and every hit or
/// coalesced answer is bit-identical (operator==) to one of the key's cold
/// answers or to its snapshot-loaded answer. Returns the failing records.
std::size_t checkCacheReplays(
    const std::vector<ServedRecord>& records,
    const std::map<std::string, pushpart::PlanAnswer>& warm, CheckLog& log);

/// Re-derives a tier-A answer on the element-exact grid: makeCandidate +
/// evalModel over the six shapes must give the served argmin shape and VoC.
/// `req` is the canonical request.
bool checkTierAOnGrid(const pushpart::PlanRequest& req,
                      const pushpart::PlanAnswer& a,
                      const pushpart::Machine& machine, CheckLog& log);

/// Family serving: the served modeled time is at most selectOptimal's and
/// the served VoC is at least the communication lower bound.
bool checkFamilyAnswer(const pushpart::PlanRequest& req,
                       const pushpart::PlanAnswer& a,
                       const pushpart::Machine& machine, CheckLog& log);

/// Per-walk evidence from a runBatch replay.
struct WalkStat {
  std::int64_t pushes = 0;
  std::int64_t sweeps = 0;
  pushpart::DfaStop stop = pushpart::DfaStop::kCondensed;
};

/// A runBatch replay of one tier-B request with the oracle's batch settings.
struct SearchReplay {
  std::int64_t bestVoc = 0;
  int completed = 0;
  bool truncated = false;
  std::vector<WalkStat> walks;
  double seconds = 0.0;
};

SearchReplay replaySearch(const pushpart::PlanRequest& req,
                          const pushpart::Machine& machine);

/// Tier-B answer shape: not truncated and every requested walk completed.
bool checkSearchAnswer(const pushpart::PlanAnswer& a, CheckLog& log);

/// The replay reproduces the served best VoC bit for bit.
bool checkSearchReplay(const pushpart::PlanAnswer& a, const SearchReplay& r,
                       CheckLog& log);

/// Every live tier-B answer among `records` passes checkSearchAnswer, and
/// `replayCount` of their distinct keys, a seeded sample, are replayed with
/// runBatch and must pass checkSearchReplay. The replays and their canonical
/// requests are kept for the dfa.* metrics.
struct LiveSearchCheck {
  std::size_t failed = 0;
  std::vector<pushpart::PlanRequest> requests;
  std::vector<SearchReplay> replays;
};
LiveSearchCheck checkLiveSearches(const std::vector<ServedRecord>& records,
                                  std::size_t replayCount, std::uint64_t seed,
                                  const pushpart::Machine& machine, CheckLog& log);

/// Executor result: verified, max |error| < 1e-9, communication completed.
bool checkExecResult(const pushpart::ExecResult& r, CheckLog& log);

}  // namespace pushbench
