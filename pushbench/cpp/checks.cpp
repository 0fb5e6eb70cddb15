#include "checks.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "bounds/bounds.hpp"
#include "dfa/batch.hpp"
#include "model/models.hpp"
#include "model/optimal.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace pushbench {

using pushpart::PlanAnswer;

std::vector<std::size_t> sampleIndices(std::size_t size, std::size_t k,
                                       std::uint64_t seed) {
  std::vector<std::size_t> idx(size);
  for (std::size_t i = 0; i < size; ++i) idx[i] = i;
  pushpart::Rng rng(seed);
  rng.shuffle(idx);
  idx.resize(std::min(k, size));
  std::sort(idx.begin(), idx.end());
  return idx;
}

bool liveSearch(const ServedRecord& r) {
  return r.cold && r.request.tier == pushpart::PlanTier::kSearch &&
         !r.answer.atlasServed;
}

bool fullyServed(const PlanAnswer& a) {
  return a.fullFidelity() && (a.servedTier == a.tier || a.atlasServed);
}

std::size_t checkCacheReplays(const std::vector<ServedRecord>& records,
                              const std::map<std::string, PlanAnswer>& warm,
                              CheckLog& log) {
  std::map<std::string, std::vector<const PlanAnswer*>> cold;
  for (const ServedRecord& r : records)
    if (r.cold) cold[r.key].push_back(&r.answer);

  std::size_t failed = 0;
  for (const auto& [key, answers] : cold) {
    const auto w = warm.find(key);
    const PlanAnswer& ref = w != warm.end() ? w->second : *answers.front();
    for (const PlanAnswer* a : answers) {
      PlanAnswer same = *a;
      same.solveSeconds = ref.solveSeconds;
      if (!(same == ref)) {
        log.fail("cold solve of " + key + " disagrees with its reference answer");
        ++failed;
      }
    }
  }
  for (const ServedRecord& r : records) {
    if (r.cold) continue;
    bool matched = false;
    if (const auto it = cold.find(r.key); it != cold.end())
      for (const PlanAnswer* a : it->second) matched = matched || *a == r.answer;
    if (const auto it = warm.find(r.key); it != warm.end())
      matched = matched || it->second == r.answer;
    if (!matched) {
      log.fail("cache-served answer for " + r.key +
               " matches no cold or snapshot answer");
      ++failed;
    }
  }
  return failed;
}

bool checkTierAOnGrid(const pushpart::PlanRequest& req, const PlanAnswer& a,
                      const pushpart::Machine& machine, CheckLog& log) {
  pushpart::Machine m = machine;
  m.ratio = req.ratio;
  bool any = false;
  pushpart::CandidateShape bestShape = pushpart::CandidateShape::kSquareCorner;
  double bestExec = 0.0;
  std::int64_t bestVoc = 0;
  for (pushpart::CandidateShape shape : pushpart::kAllCandidates) {
    if (!pushpart::candidateFeasible(shape, req.n, req.ratio)) continue;
    const pushpart::Partition q = pushpart::makeCandidate(shape, req.n, req.ratio);
    const double exec =
        pushpart::evalModel(req.algo, q, m, req.topology, req.star).execSeconds;
    if (!any || exec < bestExec) {
      any = true;
      bestShape = shape;
      bestExec = exec;
      bestVoc = q.volumeOfCommunication();
    }
  }
  if (any && bestShape == a.shape && bestVoc == a.voc) return true;
  std::ostringstream msg;
  msg << "tier-A answer n=" << req.n << " ratio=" << req.ratio.str()
      << " served " << pushpart::candidateName(a.shape) << " voc=" << a.voc
      << ", grid argmin "
      << (any ? pushpart::candidateName(bestShape) : "none") << " voc=" << bestVoc;
  log.fail(msg.str());
  return false;
}

bool checkFamilyAnswer(const pushpart::PlanRequest& req, const PlanAnswer& a,
                       const pushpart::Machine& machine, CheckLog& log) {
  pushpart::Machine m = machine;
  m.ratio = req.ratio;
  const pushpart::RankedCandidate canonical =
      pushpart::selectOptimal(req.algo, req.n, m, req.topology, req.star);
  const std::int64_t bound = pushpart::vocLowerBound(req.n, req.ratio);
  if (a.model.execSeconds <= canonical.model.execSeconds && a.voc >= bound)
    return true;
  std::ostringstream msg;
  msg << "family answer n=" << req.n << " ratio=" << req.ratio.str()
      << " exec=" << a.model.execSeconds
      << " (selectOptimal " << canonical.model.execSeconds << ") voc=" << a.voc
      << " (bound " << bound << ")";
  log.fail(msg.str());
  return false;
}

SearchReplay replaySearch(const pushpart::PlanRequest& req,
                          const pushpart::Machine& machine) {
  // The oracle's tier-B batch settings at their defaults (one search thread,
  // run-length engine), so the replay walks the same trajectories.
  pushpart::Machine m = machine;
  m.ratio = req.ratio;
  pushpart::BatchOptions batch;
  batch.n = req.n;
  batch.ratio = req.ratio;
  batch.runs = req.searchRuns;
  batch.threads = 1;
  batch.seed = req.searchSeed;
  SearchReplay out;
  double bestExec = 0.0;
  bool any = false;
  pushpart::Stopwatch timer;
  const pushpart::BatchSummary summary =
      pushpart::runBatch(batch, [&](const pushpart::BatchRun& run) {
        out.walks.push_back(
            {run.result.pushesApplied, run.result.sweeps, run.result.stop});
        if (run.result.stop == pushpart::DfaStop::kCancelled) return;
        const double exec = pushpart::evalModel(req.algo, run.result.final, m,
                                                req.topology, req.star)
                                .execSeconds;
        if (!any || exec < bestExec) {
          any = true;
          bestExec = exec;
          out.bestVoc = run.result.final.volumeOfCommunication();
        }
        ++out.completed;
      });
  out.seconds = timer.seconds();
  out.truncated = summary.truncated() || !summary.failures.empty();
  return out;
}

bool checkSearchAnswer(const PlanAnswer& a, CheckLog& log) {
  if (!a.truncated && a.searchRuns > 0 && a.searchCompleted == a.searchRuns)
    return true;
  log.fail("tier-B answer truncated or incomplete: " +
           std::to_string(a.searchCompleted) + "/" +
           std::to_string(a.searchRuns) + " walks");
  return false;
}

bool checkSearchReplay(const PlanAnswer& a, const SearchReplay& r,
                       CheckLog& log) {
  if (!r.truncated && r.completed == a.searchRuns &&
      r.bestVoc == a.searchBestVoc)
    return true;
  log.fail("runBatch replay best VoC " + std::to_string(r.bestVoc) +
           " != served " + std::to_string(a.searchBestVoc));
  return false;
}

LiveSearchCheck checkLiveSearches(const std::vector<ServedRecord>& records,
                                  std::size_t replayCount, std::uint64_t seed,
                                  const pushpart::Machine& machine, CheckLog& log) {
  LiveSearchCheck out;
  std::vector<const ServedRecord*> distinct;
  std::set<std::string> seen;
  for (const ServedRecord& r : records) {
    if (!liveSearch(r)) continue;
    if (!checkSearchAnswer(r.answer, log)) ++out.failed;
    if (seen.insert(r.key).second) distinct.push_back(&r);
  }
  for (std::size_t k : sampleIndices(distinct.size(), replayCount, seed)) {
    const ServedRecord& r = *distinct[k];
    out.requests.push_back(pushpart::canonicalize(r.request).request);
    out.replays.push_back(replaySearch(out.requests.back(), machine));
    if (!checkSearchReplay(r.answer, out.replays.back(), log)) ++out.failed;
  }
  return out;
}

bool checkExecResult(const pushpart::ExecResult& r, CheckLog& log) {
  if (r.verified && r.maxAbsError < 1e-9 && r.commCompleted) return true;
  std::ostringstream msg;
  msg << "exec result verified=" << r.verified << " max|err|=" << r.maxAbsError
      << " commCompleted=" << r.commCompleted;
  log.fail(msg.str());
  return false;
}

}  // namespace pushbench
