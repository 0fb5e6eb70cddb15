// Benchmark-side self-test: deterministic generators, planted wrong answers
// caught by the correctness checks, and the trace self-time arithmetic.
//
//   ./pushbench_selftest        (exit 0 when every check passes)
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "checks.hpp"
#include "generators.hpp"
#include "model/optimal.hpp"
#include "report.hpp"
#include "serve/oracle.hpp"
#include "trace.hpp"

using namespace pushbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool hasAllPaperRatios(const std::vector<pushpart::PlanRequest>& reqs) {
  for (const pushpart::Ratio& paper : pushpart::paperRatios()) {
    bool found = false;
    for (const pushpart::PlanRequest& r : reqs) found = found || r.ratio == paper;
    if (!found) return false;
  }
  return true;
}

void generatorTests() {
  expect(streamText(serveMixStream(7, 500)) == streamText(serveMixStream(7, 500)),
         "serve-mix: same seed, byte-identical stream");
  expect(streamText(serveMixStream(7, 500)) != streamText(serveMixStream(8, 500)),
         "serve-mix: different seed, different stream");
  expect(streamText(planFamiliesStream(7, 200)) == streamText(planFamiliesStream(7, 200)),
         "plan-families: same seed, byte-identical stream");
  expect(streamText(planFamiliesStream(7, 200)) != streamText(planFamiliesStream(8, 200)),
         "plan-families: different seed, different stream");
  expect(streamText(execStream(7, 32)) == streamText(execStream(7, 32)),
         "exec: same seed, byte-identical stream");
  expect(streamText(execStream(7, 32)) != streamText(execStream(8, 32)),
         "exec: different seed, different stream");

  const ServeMixStream mix = serveMixStream(3, 500);
  expect(hasAllPaperRatios(mix.universe), "serve-mix: the paper's 11 ratios appear");
  expect(hasAllPaperRatios(planFamiliesStream(3, 100)),
         "plan-families: the paper's 11 ratios appear in 100 ops");

  std::size_t tierA = 0;
  bool ranges = true;
  for (const pushpart::PlanRequest& r : mix.universe) {
    const bool a = r.tier == pushpart::PlanTier::kFast;
    tierA += a ? 1 : 0;
    ranges = ranges && r.ratio.valid() && r.ratio.r <= 10.0 && r.ratio.p <= 20.0 &&
             (a ? r.n >= 256 && r.n <= 3000 : r.n >= 128 && r.n <= 384);
  }
  expect(4 * tierA == 3 * mix.universe.size(), "serve-mix: 3 in 4 keys are tier A");
  expect(ranges, "serve-mix: sizes and ratios within their ranges");

  std::set<std::string> keys;
  const auto fam = planFamiliesStream(5, 1000);
  for (const auto& r : fam) keys.insert(pushpart::canonicalize(r).text);
  expect(keys.size() == fam.size(), "plan-families: keys never repeat");

  const auto ex = execStream(5, 16);
  bool alternating = true;
  std::set<std::string> configs;
  for (std::size_t i = 0; i < ex.size(); ++i) {
    alternating = alternating && ex[i].ratio.p == (i % 2 == 0 ? 4.0 : 12.0);
    if (i < kExecConfigs)
      configs.insert(std::to_string(static_cast<int>(ex[i].shape)) + "/" +
                     ex[i].ratio.str() + "/" + pushpart::algoName(ex[i].algo));
  }
  expect(alternating, "exec: ratios alternate");
  expect(configs.size() == kExecConfigs, "exec: one cycle covers all 8 configurations");
}

void plantedAnswerTests() {
  const pushpart::Machine machine;
  CheckLog quiet;

  // Cache replays.
  pushpart::PlanRequest req;
  req.n = 200;
  req.ratio = {5, 2, 1};
  pushpart::Oracle oracle;
  const pushpart::PlanResponse cold = oracle.plan(req);
  const pushpart::PlanResponse hit = oracle.plan(req);
  std::vector<ServedRecord> records = {{cold.key, req, cold.answer, true},
                                       {hit.key, req, hit.answer, false}};
  CheckLog log;
  expect(hit.cacheHit && checkCacheReplays(records, {}, log) == 0,
         "cache replay: genuine hit passes");
  records[1].answer.voc += 1;
  expect(checkCacheReplays(records, {}, quiet) == 1, "cache replay: planted hit caught");

  // Tier A on the element-exact grid.
  const pushpart::PlanRequest canon = pushpart::canonicalize(req).request;
  expect(checkTierAOnGrid(canon, cold.answer, machine, log),
         "tier A: genuine answer re-derived on the grid");
  pushpart::PlanAnswer wrong = cold.answer;
  wrong.shape = wrong.shape == pushpart::CandidateShape::kSquareCorner
                    ? pushpart::CandidateShape::kBlockRectangle
                    : pushpart::CandidateShape::kSquareCorner;
  expect(!checkTierAOnGrid(canon, wrong, machine, quiet), "tier A: planted shape caught");

  // Family serving.
  pushpart::OracleOptions famOpts;
  famOpts.families = pushpart::FamilySet::all();
  pushpart::Oracle fam(famOpts);
  const pushpart::PlanAnswer famAnswer = fam.plan(req).answer;
  expect(checkFamilyAnswer(canon, famAnswer, machine, log),
         "families: genuine answer passes");
  wrong = famAnswer;
  wrong.model.execSeconds *= 1.5;
  expect(!checkFamilyAnswer(canon, wrong, machine, quiet),
         "families: planted slower-than-canonical answer caught");
  wrong = famAnswer;
  wrong.voc = 0;
  expect(!checkFamilyAnswer(canon, wrong, machine, quiet),
         "families: planted VoC below the lower bound caught");

  // Tier-B search and its replay.
  pushpart::PlanRequest search = req;
  search.n = 96;
  search.tier = pushpart::PlanTier::kSearch;
  search.searchRuns = 2;
  search.searchSeed = 11;
  const pushpart::PlanResponse bResp = oracle.plan(search);
  const pushpart::PlanAnswer& b = bResp.answer;
  const SearchReplay replay =
      replaySearch(pushpart::canonicalize(search).request, machine);
  expect(checkSearchAnswer(b, log) && checkSearchReplay(b, replay, log),
         "tier B: genuine answer passes and replays bit for bit");
  wrong = b;
  wrong.searchBestVoc += 1;
  expect(!checkSearchReplay(wrong, replay, quiet), "tier B: planted best VoC caught");
  wrong = b;
  wrong.truncated = true;
  expect(!checkSearchAnswer(wrong, quiet), "tier B: planted truncation caught");
  expect(!fullyServed(wrong), "tier B: truncated answer is not fully served");

  // Live tier-B answers as serve-mix checks them: all checked, a sample replayed.
  std::vector<ServedRecord> live = {{bResp.key, search, b, true}};
  const LiveSearchCheck genuine = checkLiveSearches(live, 1, 3, machine, log);
  expect(genuine.failed == 0 && genuine.replays.size() == 1,
         "serve-mix tier B: genuine live answer passes its replay");
  live[0].answer.searchBestVoc += 1;
  expect(checkLiveSearches(live, 1, 3, machine, quiet).failed == 1,
         "serve-mix tier B: planted best VoC caught");
  live[0].answer = b;
  live[0].answer.searchCompleted -= 1;
  expect(checkLiveSearches(live, 1, 3, machine, quiet).failed == 1,
         "serve-mix tier B: planted lost walk caught");
  live[0].answer = b;
  live[0].answer.atlasServed = true;
  live[0].answer.searchBestVoc += 1;
  const LiveSearchCheck certified = checkLiveSearches(live, 1, 3, machine, quiet);
  expect(certified.failed == 0 && certified.replays.empty(),
         "serve-mix tier B: atlas certificates are not replayed");

  // Executor results.
  pushpart::ExecResult r;
  r.verified = true;
  expect(checkExecResult(r, log), "exec: verified result passes");
  r.maxAbsError = 1e-3;
  expect(!checkExecResult(r, quiet), "exec: planted numeric error caught");
  r.maxAbsError = 0.0;
  r.commCompleted = false;
  expect(!checkExecResult(r, quiet), "exec: planted incomplete comm caught");

  expect(log.ok(), "no genuine answer was flagged");
}

void traceTests() {
  // Root [0, 100) with children [10, 30) and [20, 50): covered 40, self 60.
  const std::vector<Span> spans = {{1, 0, 1, "root", 0, 100},
                                   {2, 1, 1, "child", 10, 30},
                                   {3, 1, 1, "child", 20, 50}};
  const TraceSummary s = summarize(spans);
  bool ok = s.byName.size() == 2;
  for (const SpanTotals& t : s.byName) {
    if (t.name == "root") ok = ok && std::fabs(t.selfMs - 60e-6) < 1e-12;
    if (t.name == "child") ok = ok && t.count == 2 && std::fabs(t.selfMs - 50e-6) < 1e-12;
  }
  expect(ok, "trace: self time subtracts the union of child intervals");
  expect(std::fabs(s.unattributedShare - 0.6) < 1e-12, "trace: unattributed share");
  expect(percentile({1, 2, 3, 4}, 0.5) == 2.5 && percentile({5}, 0.99) == 5,
         "percentile: linear interpolation");
}

}  // namespace

int main() {
  generatorTests();
  plantedAnswerTests();
  traceTests();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
