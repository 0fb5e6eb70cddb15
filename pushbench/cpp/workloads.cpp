#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "atlas/builder.hpp"
#include "atlas/io.hpp"
#include "bounds/bounds.hpp"
#include "checks.hpp"
#include "exec/kij_executor.hpp"
#include "probes.hpp"
#include "serve/oracle.hpp"
#include "trace.hpp"

namespace pushbench {

using pushpart::Oracle;
using pushpart::OracleOptions;
using pushpart::PlanAnswer;
using pushpart::PlanRequest;
using pushpart::PlanTier;

double tailLevel(Workload w) {
  // Fixed from the op count of a 30-s run (see README.md): a level that
  // leaves at least 10 samples beyond it at the lowest op count measured.
  switch (w) {
    case Workload::kServeMix: return 0.995;
    case Workload::kPlanFamilies: return 0.90;
    case Workload::kExec: return 0.75;
  }
  return 0.5;
}

namespace {

/// Set-ups per run: at least this many, and for at least kSetupSeconds;
/// setup_s is their median. exec's set-up includes a warm-up multiply of
/// about 0.4 s, so it needs fewer.
constexpr int kSetupReps = 15;
constexpr int kExecSetupReps = 5;
/// The host's slow phases last about a second; a set-up window several times
/// longer keeps one of them from deciding a run's setup_s.
constexpr double kSetupSeconds = 3.0;

double seconds(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) * 1e-9;
}

/// Whether a set-up loop that started at `startNs` and has timed `done`
/// set-ups runs another.
bool moreSetups(std::int64_t startNs, std::size_t done, int minReps) {
  return static_cast<int>(done) < minReps || seconds(startNs, nowNs()) < kSetupSeconds;
}

// --- closed loop -------------------------------------------------------------

struct OpOutcome {
  double latency = 0.0;
  bool failed = false;
};

struct LoopStats {
  std::vector<double> latencies;  ///< Successful ops only.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double elapsed = 0.0;
};

/// Runs `clients` closed-loop clients for `duration` seconds. Each client
/// calls op(client, i) for i = 0, 1, ... and issues its next op only after
/// the previous one returned; op returns nullopt when its stream is done.
/// Ops still in flight at the deadline finish (and count as attempted) but
/// their latency and completion fall outside the measured window.
template <typename Op>
LoopStats closedLoop(int clients, double duration, Op&& op) {
  std::vector<LoopStats> per(static_cast<std::size_t>(clients));
  const std::int64_t start = nowNs();
  const auto deadline = start + static_cast<std::int64_t>(duration * 1e9);
  const auto client = [&](int c) {
    LoopStats& s = per[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; nowNs() < deadline; ++i) {
      const std::optional<OpOutcome> o = op(c, i);
      if (!o) break;
      ++s.attempted;
      if (o->failed)
        ++s.failed;
      else if (nowNs() <= deadline)
        s.latencies.push_back(o->latency);
    }
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  LoopStats out;
  out.elapsed = std::min(seconds(start, nowNs()), duration);
  for (const LoopStats& s : per) {
    out.latencies.insert(out.latencies.end(), s.latencies.begin(), s.latencies.end());
    out.attempted += s.attempted;
    out.failed += s.failed;
  }
  return out;
}

/// Ops completed within the measured window per second of `busySeconds`.
double opsPerSecond(const LoopStats& loop, double busySeconds) {
  return busySeconds > 0.0 ? static_cast<double>(loop.latencies.size()) / busySeconds
                           : 0.0;
}

/// `peakRss` is read when the timed phase ends, before the checks allocate.
void setEndToEnd(Metrics& m, double setupS, const LoopStats& loop,
                 double busySeconds, double tailQ, double gapPct, double peakRss) {
  m.set("setup_s", setupS, "s");
  m.set("ops_per_s", opsPerSecond(loop, busySeconds), "1/s");
  m.set("lat_p50_ms", median(loop.latencies) * 1e3, "ms");
  m.set("lat_tail_ms", percentile(loop.latencies, tailQ) * 1e3, "ms");
  m.set("peak_rss_mb", peakRss, "MB");
  m.set("answer_gap_pct", gapPct, "%");
}

// --- plan ops and their spans --------------------------------------------------

/// When the oracle's solve of the current thread's plan() call started
/// (onSolveStart runs on the calling thread; 0 when nothing was solved).
thread_local std::int64_t tlsSolveStartNs = 0;
thread_local bool tlsTracing = false;

/// Walk completion times by canonical key. onSearchRun runs on the batch's
/// worker thread, and a key has at most one solve in flight (the cache
/// coalesces), so the calling op collects its walks by key.
struct WalkLog {
  std::mutex mutex;
  std::unordered_map<std::string, std::vector<std::int64_t>> endsNs;

  std::vector<std::int64_t> take(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = endsNs.find(key);
    if (it == endsNs.end()) return {};
    std::vector<std::int64_t> out = std::move(it->second);
    endsNs.erase(it);
    return out;
  }
};

/// Everything a traced phase records into. Outlives the oracle whose hooks
/// point at it.
struct TraceSink {
  explicit TraceSink(int threads) : tracer(threads) {}
  Tracer tracer;
  WalkLog walks;
};

void installTraceHooks(OracleOptions& o, WalkLog& walks) {
  o.onSolveStart = [](const pushpart::CanonicalKey&) {
    if (tlsTracing) tlsSolveStartNs = nowNs();
  };
  o.onSearchRun = [&walks](const pushpart::CanonicalKey& key, int) {
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(walks.mutex);
    walks.endsNs[key.text].push_back(t);
  };
}

/// Per-layer samples cut from the spans of one client.
struct LayerSamples {
  std::vector<double> hitUs;
  std::vector<double> lookupUs;
  std::vector<double> tierAMs;
  std::vector<double> atlasMs;
  std::vector<double> walkMs;

  void append(const LayerSamples& o) {
    for (auto [dst, src] : {std::pair{&hitUs, &o.hitUs}, {&lookupUs, &o.lookupUs},
                            {&tierAMs, &o.tierAMs}, {&atlasMs, &o.atlasMs},
                            {&walkMs, &o.walkMs}})
      dst->insert(dst->end(), src->begin(), src->end());
  }
};

/// One closed-loop phase of plan() traffic against one oracle.
class PlanPhase {
 public:
  /// `sink` is null for an untraced phase.
  PlanPhase(Oracle& oracle, int clients, TraceSink* sink)
      : oracle_(oracle),
        sink_(sink),
        records_(static_cast<std::size_t>(clients)),
        samples_(static_cast<std::size_t>(clients)),
        errors_(static_cast<std::size_t>(clients)) {}

  OpOutcome run(int client, std::size_t index, const PlanRequest& req) {
    const auto c = static_cast<std::size_t>(client);
    tlsTracing = sink_ != nullptr;
    tlsSolveStartNs = 0;
    pushpart::PlanResponse resp;
    std::string error;
    const std::int64_t t0 = nowNs();
    try {
      resp = oracle_.plan(req);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t t1 = nowNs();
    tlsTracing = false;
    const double latency = seconds(t0, t1);
    if (!error.empty()) {
      errors_[c].push_back("plan() threw: " + error);
      return {latency, true};
    }
    if (resp.shed || !fullyServed(resp.answer)) {
      errors_[c].push_back("shed or degraded answer for " + resp.key);
      return {latency, true};
    }
    const bool cold = !resp.cacheHit && !resp.coalesced;
    if (sink_ != nullptr)
      recordSpans(client, (static_cast<std::uint64_t>(client + 1) << 32) | index,
                  t0, t1, resp);
    records_[c].push_back({resp.key, req, std::move(resp.answer), cold, latency});
    return {latency, false};
  }

  std::vector<ServedRecord> records() const { return merge(records_); }
  std::vector<std::string> errors() const { return merge(errors_); }
  LayerSamples samples() const {
    LayerSamples out;
    for (const LayerSamples& s : samples_) out.append(s);
    return out;
  }

 private:
  template <typename T>
  static std::vector<T> merge(const std::vector<std::vector<T>>& parts) {
    std::vector<T> out;
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  }

  void recordSpans(int client, std::uint64_t request, std::int64_t t0,
                   std::int64_t t1, const pushpart::PlanResponse& resp) {
    Tracer& tracer = sink_->tracer;
    LayerSamples& ls = samples_[static_cast<std::size_t>(client)];
    const std::uint64_t root = tracer.newId(client);
    tracer.record(client, {root, 0, request, "serve.plan", t0, t1});
    const std::int64_t solveStart = tlsSolveStartNs;
    if (solveStart == 0) {
      if (resp.cacheHit) ls.hitUs.push_back(static_cast<double>(t1 - t0) * 1e-3);
      return;
    }
    tracer.record(client, {tracer.newId(client), root, request, "serve.lookup",
                           t0, solveStart});
    ls.lookupUs.push_back(static_cast<double>(solveStart - t0) * 1e-3);
    const PlanAnswer& a = resp.answer;
    const char* name = a.atlasServed ? "atlas.solve"
                       : a.servedTier == PlanTier::kSearch ? "tier_b.solve"
                                                           : "tier_a.solve";
    const std::uint64_t solve = tracer.newId(client);
    tracer.record(client, {solve, root, request, name, solveStart, t1});
    const double solveMs = static_cast<double>(t1 - solveStart) * 1e-6;
    if (a.atlasServed)
      ls.atlasMs.push_back(solveMs);
    else if (a.servedTier == PlanTier::kFast)
      ls.tierAMs.push_back(solveMs);
    std::int64_t prev = solveStart;
    for (std::int64_t end : sink_->walks.take(resp.key)) {
      tracer.record(client, {tracer.newId(client), solve, request, "dfa.walk", prev, end});
      ls.walkMs.push_back(static_cast<double>(end - prev) * 1e-6);
      prev = end;
    }
  }

  Oracle& oracle_;
  TraceSink* sink_;
  std::vector<std::vector<ServedRecord>> records_;
  std::vector<LayerSamples> samples_;
  std::vector<std::vector<std::string>> errors_;
};

double meanGapOfCold(const std::vector<ServedRecord>& records) {
  std::vector<double> gaps;
  for (const ServedRecord& r : records)
    if (r.cold) gaps.push_back(r.answer.optimalityGapPct);
  return mean(gaps);
}

PlanRequest canonical(const PlanRequest& req) {
  return pushpart::canonicalize(req).request;
}

/// Share of the time in plan() that went to live tier-B solves.
double liveSearchTimeShare(const std::vector<ServedRecord>& records) {
  double live = 0.0;
  double total = 0.0;
  for (const ServedRecord& r : records) {
    total += r.latency;
    live += liveSearch(r) ? r.latency : 0.0;
  }
  return total > 0.0 ? live / total : 0.0;
}

/// Per-layer metrics every plan workload reads the same way.
void setServeLayers(Metrics& m, const pushpart::OracleStats& st,
                    const LayerSamples& ls,
                    const std::vector<ServedRecord>& records) {
  const auto& c = st.cache;
  const double lookups = static_cast<double>(c.hits + c.misses + c.coalesced);
  const double requests = static_cast<double>(st.sourceCache + st.sourceAtlas +
                                              st.sourceTierA + st.sourceTierB +
                                              st.shed);
  const auto share = [&](std::uint64_t v) {
    return requests > 0 ? static_cast<double>(v) / requests : 0.0;
  };
  m.set("serve.hit_us", median(ls.hitUs), "us");
  m.set("serve.lookup_us", median(ls.lookupUs), "us");
  m.set("serve.cache.hit_ratio",
        lookups > 0 ? static_cast<double>(c.hits) / lookups : 0.0, "ratio");
  m.set("serve.cache.evictions", static_cast<double>(c.evictions), "count");
  m.set("serve.cache.coalesced", static_cast<double>(c.coalesced), "count");
  m.set("serve.share.cache", share(st.sourceCache), "ratio");
  m.set("serve.share.tier_a", share(st.sourceTierA), "ratio");
  m.set("serve.share.atlas", share(st.sourceAtlas), "ratio");
  m.set("serve.share.tier_b", share(st.sourceTierB), "ratio");
  m.set("serve.time_share.tier_b", liveSearchTimeShare(records), "ratio");
  m.set("tier_a.solve_ms", median(ls.tierAMs), "ms");
  m.set("atlas.solve_ms", median(ls.atlasMs), "ms");
  m.set("dfa.walk_ms", median(ls.walkMs), "ms");
  m.set("bounds.gap_pct", meanGapOfCold(records), "%");

  std::vector<double> confirmed;
  std::vector<double> extWin;
  for (const ServedRecord& r : records) {
    if (!r.cold) continue;
    extWin.push_back(r.answer.family != pushpart::FamilyId::kCanonical ? 1.0 : 0.0);
    if (r.answer.servedTier == PlanTier::kSearch && !r.answer.atlasServed)
      confirmed.push_back(r.answer.searchConfirmedCandidate ? 1.0 : 0.0);
  }
  m.set("family.ext_win_ratio", mean(extWin), "ratio");
  m.set("dfa.confirmed_ratio", mean(confirmed), "ratio");
}

/// dfa.* per-walk metrics from runBatch replays.
void setReplayLayers(Metrics& m, const std::vector<PlanRequest>& requests,
                     const std::vector<SearchReplay>& replays) {
  double pushes = 0.0;
  double sweeps = 0.0;
  double walks = 0.0;
  double condensed = 0.0;
  double secondsTotal = 0.0;
  std::vector<double> nsPerCell;
  for (std::size_t k = 0; k < replays.size(); ++k) {
    const SearchReplay& r = replays[k];
    for (const WalkStat& w : r.walks) {
      pushes += static_cast<double>(w.pushes);
      sweeps += static_cast<double>(w.sweeps);
      condensed += w.stop == pushpart::DfaStop::kCondensed ? 1.0 : 0.0;
    }
    walks += static_cast<double>(r.walks.size());
    secondsTotal += r.seconds;
    if (!r.walks.empty()) {
      const double n = requests[k].n;
      nsPerCell.push_back(r.seconds * 1e9 / static_cast<double>(r.walks.size()) /
                          (n * n));
    }
  }
  if (walks == 0.0) return;
  m.set("dfa.pushes_per_walk", pushes / walks, "count");
  m.set("dfa.sweeps_per_walk", sweeps / walks, "count");
  m.set("dfa.push_ns", pushes > 0.0 ? secondsTotal * 1e9 / pushes : 0.0, "ns");
  m.set("dfa.walk_ns_per_cell", median(nsPerCell), "ns");
  m.set("dfa.condensed_ratio", condensed / walks, "ratio");
}

/// The traced run's closing steps shared by every workload.
void finishTrace(RunResult& out, const RunConfig& cfg, Tracer& tracer,
                 double untracedOpsPerS, double tracedOpsPerS, CheckLog& log) {
  const std::vector<Span> spans = tracer.spans();
  const TraceSummary summary = summarize(spans);
  out.metrics.set("trace.unattributed_share", summary.unattributedShare, "ratio");
  out.metrics.set("trace.overhead_pct",
                  untracedOpsPerS > 0.0
                      ? (untracedOpsPerS - tracedOpsPerS) / untracedOpsPerS * 100.0
                      : 0.0,
                  "%");
  if (!probeNorthStar(out.metrics)) log.fail("North-star executor probe failed");
  const std::string path = cfg.outDir + "/trace-" + workloadName(cfg.workload) +
                           "-seed" + std::to_string(cfg.seed) + ".json";
  if (writeTraceFile(path, workloadName(cfg.workload), cfg.seed, spans, summary))
    out.notes.push_back("trace file: " + path + " (" +
                        std::to_string(spans.size()) + " spans)");
  else
    log.fail("cannot write trace file " + path);
  for (const SpanTotals& t : summary.byName) {
    char line[160];
    std::snprintf(line, sizeof(line), "span %-14s count %7zu total %10.1f ms self %10.1f ms",
                  t.name.c_str(), t.count, t.totalMs, t.selfMs);
    out.notes.push_back(line);
  }
}

void finishChecks(RunResult& out, const CheckLog& log, std::int64_t failedOps) {
  out.failed += failedOps;
  out.correct = out.correct && log.ok() && out.failed == 0;
  const std::size_t shown = std::min<std::size_t>(log.failures.size(), 10);
  for (std::size_t k = 0; k < shown; ++k)
    out.notes.push_back("CHECK FAILED: " + log.failures[k]);
}

// --- serve-mix ------------------------------------------------------------------

struct ServeMixSetup {
  ServeMixStream stream;
  std::map<std::string, PlanAnswer> warm;
  std::string atlasPath;
  std::string snapshotPath;
  double atlasBuildS = 0.0;
  double snapshotSaveMs = 0.0;
};

struct ServingOracle {
  std::unique_ptr<Oracle> oracle;
  double atlasLoadMs = 0.0;
  double snapshotLoadMs = 0.0;
};

/// The serving oracle of one phase: atlas and warm cache loaded from the
/// files the set-up wrote, so every phase starts from the same state.
ServingOracle startServing(const ServeMixSetup& s, TraceSink* sink, CheckLog& log) {
  ServingOracle out;
  std::int64_t t0 = nowNs();
  const pushpart::AtlasLoadReport atlas = pushpart::tryLoadAtlas(s.atlasPath);
  out.atlasLoadMs = seconds(t0, nowNs()) * 1e3;
  if (!atlas.clean()) log.fail("atlas round trip not clean: " + atlas.error);
  OracleOptions opts;
  opts.cacheCapacity = kServeCacheCapacity;
  opts.atlas = atlas.atlas;
  if (sink != nullptr) installTraceHooks(opts, sink->walks);
  out.oracle = std::make_unique<Oracle>(opts);
  t0 = nowNs();
  const pushpart::SnapshotLoadReport snap = out.oracle->tryLoadSnapshot(s.snapshotPath);
  out.snapshotLoadMs = seconds(t0, nowNs()) * 1e3;
  if (!snap.clean() || snap.loaded != s.warm.size())
    log.fail("snapshot warm start loaded " + std::to_string(snap.loaded) + " of " +
             std::to_string(s.warm.size()) + " entries");
  return out;
}

/// The answers a previous serving process left in its cache: the hottest
/// keys, solved before any timing (set-up only saves them as a snapshot).
std::unique_ptr<Oracle> previousProcess(ServeMixSetup& s) {
  pushpart::AtlasBuildOptions build;
  build.threads = 1;
  OracleOptions opts;
  opts.cacheCapacity = kServeCacheCapacity;
  opts.atlas = pushpart::buildAtlas(build);
  opts.atlasPrefetch = false;
  auto oracle = std::make_unique<Oracle>(opts);
  for (std::size_t k = 0; k < kServeWarmKeys; ++k) {
    pushpart::PlanResponse r = oracle->plan(s.stream.universe[k]);
    s.warm.emplace(r.key, std::move(r.answer));
  }
  return oracle;
}

/// One timed set-up: the Fig. 13 plane atlas (P_r in [1, 20] x R_r in
/// [1, 10] at unit steps) written to its file, and the previous process's
/// snapshot written to its file.
void setupServeMix(ServeMixSetup& s, const Oracle& previous) {
  pushpart::AtlasBuildOptions build;
  build.threads = 1;
  std::int64_t t0 = nowNs();
  const std::shared_ptr<pushpart::PlanAtlas> atlas = pushpart::buildAtlas(build);
  s.atlasBuildS = seconds(t0, nowNs());
  pushpart::saveAtlas(*atlas, s.atlasPath);
  t0 = nowNs();
  previous.saveSnapshot(s.snapshotPath);
  s.snapshotSaveMs = seconds(t0, nowNs()) * 1e3;
}

struct ServePhaseOut {
  LoopStats loop;
  std::vector<ServedRecord> records;
  LayerSamples samples;
  pushpart::OracleStats stats;
  std::vector<std::string> errors;
};

ServePhaseOut runServePhase(const ServeMixSetup& s, Oracle& oracle,
                            double duration, TraceSink* sink) {
  PlanPhase phase(oracle, kServeClients, sink);
  ServePhaseOut out;
  out.loop = closedLoop(kServeClients, duration,
                        [&](int c, std::size_t i) -> std::optional<OpOutcome> {
                          const auto& mine = s.stream.clients[static_cast<std::size_t>(c)];
                          const PlanRequest& req = s.stream.universe[mine[i % mine.size()]];
                          return phase.run(c, i, req);
                        });
  out.records = phase.records();
  out.samples = phase.samples();
  out.stats = oracle.stats();
  out.errors = phase.errors();
  return out;
}

/// Checks one serve-mix phase; returns failed ops. The live tier-B replays
/// go to `searches` for the dfa.* metrics.
std::int64_t checkServePhase(const ServeMixSetup& s, const ServePhaseOut& ph,
                             std::uint64_t seed, CheckLog& log,
                             LiveSearchCheck& searches) {
  for (const std::string& e : ph.errors) log.fail(e);
  std::int64_t failed =
      static_cast<std::int64_t>(checkCacheReplays(ph.records, s.warm, log));
  // A seeded sample of distinct cold tier-A answers, re-derived on the grid.
  std::vector<const ServedRecord*> tierA;
  std::set<std::string> seen;
  for (const ServedRecord& r : ph.records)
    if (r.cold && r.request.tier == PlanTier::kFast && seen.insert(r.key).second)
      tierA.push_back(&r);
  for (std::size_t k : sampleIndices(tierA.size(), 4, seed ^ 0xC4EC'0000'0000'0001ull))
    if (!checkTierAOnGrid(canonical(tierA[k]->request), tierA[k]->answer,
                          pushpart::Machine{}, log))
      ++failed;
  searches = checkLiveSearches(ph.records, 4, seed ^ 0xC4EC'0000'0000'0002ull,
                               pushpart::Machine{}, log);
  return failed + static_cast<std::int64_t>(searches.failed);
}

/// How many live tier-B solves a phase made and their share of plan() time.
std::string liveSearchLine(const std::vector<ServedRecord>& records) {
  std::size_t live = 0;
  for (const ServedRecord& r : records) live += liveSearch(r) ? 1 : 0;
  char line[160];
  std::snprintf(line, sizeof(line),
                "live tier-B: %zu solves, %.1f%% of the time in plan()", live,
                100.0 * liveSearchTimeShare(records));
  return line;
}

RunResult runServeMix(const RunConfig& cfg) {
  RunResult out;
  CheckLog log;
  const std::size_t opsPerClient =
      static_cast<std::size_t>(std::max(1.0, cfg.seconds) * 2000.0);
  std::vector<double> setupS, buildS, atlasLoadMs, snapSaveMs, snapLoadMs;
  ServeMixSetup s;
  s.atlasPath = cfg.outDir + "/serve-mix.atlas";
  s.snapshotPath = cfg.outDir + "/serve-mix.snapshot";
  s.stream = serveMixStream(cfg.seed, opsPerClient);
  const std::unique_ptr<Oracle> previous = previousProcess(s);
  ServingOracle serving;
  for (const std::int64_t start = nowNs(); moreSetups(start, setupS.size(), kSetupReps);) {
    serving = {};
    const std::int64_t t0 = nowNs();
    setupServeMix(s, *previous);
    serving = startServing(s, nullptr, log);
    setupS.push_back(seconds(t0, nowNs()));
    buildS.push_back(s.atlasBuildS);
    atlasLoadMs.push_back(serving.atlasLoadMs);
    snapSaveMs.push_back(s.snapshotSaveMs);
    snapLoadMs.push_back(serving.snapshotLoadMs);
  }

  const ServePhaseOut plain = runServePhase(s, *serving.oracle, cfg.seconds, nullptr);
  const double peakRss = peakRssMb();
  serving = {};
  out.attempted += plain.loop.attempted;
  out.failed += plain.loop.failed;
  LiveSearchCheck plainSearches;
  std::int64_t failedChecks = checkServePhase(s, plain, cfg.seed, log, plainSearches);
  const double plainOpsPerS = opsPerSecond(plain.loop, plain.loop.elapsed);

  if (!cfg.trace) {
    setEndToEnd(out.metrics, median(setupS), plain.loop, plain.loop.elapsed,
                tailLevel(cfg.workload), meanGapOfCold(plain.records), peakRss);
  } else {
    TraceSink sink(kServeClients);
    ServingOracle traced = startServing(s, &sink, log);
    const ServePhaseOut ph = runServePhase(s, *traced.oracle, cfg.seconds, &sink);
    out.attempted += ph.loop.attempted;
    out.failed += ph.loop.failed;
    LiveSearchCheck searches;
    failedChecks += checkServePhase(s, ph, cfg.seed, log, searches);

    Metrics& m = out.metrics;
    declarePerLayer(m);
    setServeLayers(m, ph.stats, ph.samples, ph.records);
    m.set("serve.snapshot_save_ms", median(snapSaveMs), "ms");
    m.set("serve.snapshot_load_ms", median(snapLoadMs), "ms");
    m.set("atlas.build_s", median(buildS), "s");
    m.set("atlas.load_ms", median(atlasLoadMs), "ms");
    const auto& st = ph.stats;
    const double atlasTried =
        static_cast<double>(st.atlasServed + st.atlasUncertified + st.atlasMisses);
    m.set("atlas.certified_ratio",
          atlasTried > 0 ? static_cast<double>(st.atlasServed) / atlasTried : 0.0,
          "ratio");

    // Per-function probes on the keys this run requested.
    std::vector<PlanRequest> requested, tierA;
    std::vector<pushpart::Ratio> searchRatios;
    std::set<std::string> seen;
    for (const ServedRecord& r : ph.records) {
      if (!seen.insert(r.key).second) continue;
      requested.push_back(r.request);
      if (r.request.tier == PlanTier::kFast) tierA.push_back(canonical(r.request));
      if (r.request.tier == PlanTier::kSearch)
        searchRatios.push_back(canonical(r.request).ratio);
    }
    std::vector<PlanRequest> sample;
    for (std::size_t k : sampleIndices(requested.size(), 64, cfg.seed ^ 0x9B0B'E000'0000'0001ull))
      sample.push_back(requested[k]);
    probeRequestLayers(sample, m);
    std::vector<PlanRequest> tierASample;
    for (std::size_t k : sampleIndices(tierA.size(), 4, cfg.seed ^ 0x9B0B'E000'0000'0002ull))
      tierASample.push_back(tierA[k]);
    probeTierA(tierASample, pushpart::Machine{}, m);
    probeAtlasLookup(*traced.oracle->options().atlas, searchRatios, m);
    setReplayLayers(m, searches.requests, searches.replays);
    traced = {};
    finishTrace(out, cfg, sink.tracer, plainOpsPerS,
                opsPerSecond(ph.loop, ph.loop.elapsed),
                log);
  }
  finishChecks(out, log, failedChecks);
  char line[200];
  std::snprintf(line, sizeof(line),
                "serve-mix: %lld ops in %.2f s (%d clients, cache %zu of %zu keys), "
                "tail level p%g",
                static_cast<long long>(plain.loop.attempted), plain.loop.elapsed,
                kServeClients, kServeCacheCapacity, kServeUniverse,
                tailLevel(cfg.workload) * 100);
  out.notes.insert(out.notes.begin(), {line, plain.stats.sourcesLine(),
                                       liveSearchLine(plain.records)});
  return out;
}

// --- plan-families -------------------------------------------------------------

struct FamiliesPhase {
  LoopStats loop;
  std::vector<ServedRecord> records;
  LayerSamples samples;
  pushpart::OracleStats stats;
  std::vector<std::string> errors;
};

/// An oracle ranking every family, after one small request outside the
/// stream has finished its lazy one-time work (first allocations, static
/// tables).
std::unique_ptr<Oracle> familiesOracle(TraceSink* sink) {
  OracleOptions opts;
  opts.families = pushpart::FamilySet::all();
  if (sink != nullptr) installTraceHooks(opts, sink->walks);
  auto oracle = std::make_unique<Oracle>(opts);
  PlanRequest warmup;
  warmup.n = 64;
  (void)oracle->plan(warmup);
  return oracle;
}

FamiliesPhase runFamiliesPhase(Oracle& oracle, const std::vector<PlanRequest>& stream,
                               double duration, TraceSink* sink) {
  PlanPhase phase(oracle, 1, sink);
  FamiliesPhase out;
  out.loop = closedLoop(1, duration, [&](int c, std::size_t i) -> std::optional<OpOutcome> {
    if (i >= stream.size()) return std::nullopt;
    return phase.run(c, i, stream[i]);
  });
  out.records = phase.records();
  out.samples = phase.samples();
  out.stats = oracle.stats();
  out.errors = phase.errors();
  return out;
}

/// Checks one plan-families phase; returns failed ops.
std::int64_t checkFamiliesPhase(const FamiliesPhase& ph, CheckLog& log) {
  for (const std::string& e : ph.errors) log.fail(e);
  std::int64_t failed = 0;
  for (const ServedRecord& r : ph.records) {
    bool ok = r.cold;
    if (!r.cold) log.fail("never-repeated key served from cache: " + r.key);
    ok = checkFamilyAnswer(canonical(r.request), r.answer, pushpart::Machine{}, log) && ok;
    failed += ok ? 0 : 1;
  }
  return failed;
}

RunResult runPlanFamilies(const RunConfig& cfg) {
  RunResult out;
  CheckLog log;
  const std::vector<PlanRequest> stream = planFamiliesStream(
      cfg.seed, static_cast<std::size_t>(std::max(1.0, cfg.seconds) * 100.0));
  std::vector<double> setupS;
  std::unique_ptr<Oracle> oracle;
  for (const std::int64_t start = nowNs(); moreSetups(start, setupS.size(), kSetupReps);) {
    oracle.reset();
    const std::int64_t t0 = nowNs();
    oracle = familiesOracle(nullptr);
    setupS.push_back(seconds(t0, nowNs()));
  }

  const FamiliesPhase plain = runFamiliesPhase(*oracle, stream, cfg.seconds, nullptr);
  const double peakRss = peakRssMb();
  oracle.reset();
  out.attempted += plain.loop.attempted;
  out.failed += plain.loop.failed;
  std::int64_t failedChecks = checkFamiliesPhase(plain, log);
  const double plainOpsPerS = opsPerSecond(plain.loop, plain.loop.elapsed);

  if (!cfg.trace) {
    setEndToEnd(out.metrics, median(setupS), plain.loop, plain.loop.elapsed,
                tailLevel(cfg.workload), meanGapOfCold(plain.records), peakRss);
  } else {
    TraceSink sink(1);
    const std::unique_ptr<Oracle> traced = familiesOracle(&sink);
    const FamiliesPhase ph = runFamiliesPhase(*traced, stream, cfg.seconds, &sink);
    out.attempted += ph.loop.attempted;
    out.failed += ph.loop.failed;
    failedChecks += checkFamiliesPhase(ph, log);

    Metrics& m = out.metrics;
    declarePerLayer(m);
    setServeLayers(m, ph.stats, ph.samples, ph.records);
    std::vector<PlanRequest> served;
    for (const ServedRecord& r : ph.records) served.push_back(canonical(r.request));
    std::vector<PlanRequest> sample;
    for (std::size_t k : sampleIndices(served.size(), 64, cfg.seed ^ 0x9B0B'E000'0000'0003ull))
      sample.push_back(served[k]);
    probeRequestLayers(sample, m);
    std::vector<PlanRequest> small;
    for (std::size_t k : sampleIndices(served.size(), 4, cfg.seed ^ 0x9B0B'E000'0000'0004ull))
      small.push_back(served[k]);
    probeTierA(small, pushpart::Machine{}, m);
    probeFamily(small, pushpart::Machine{}, m);
    finishTrace(out, cfg, sink.tracer, plainOpsPerS,
                opsPerSecond(ph.loop, ph.loop.elapsed),
                log);
  }
  finishChecks(out, log, failedChecks);
  char line[160];
  std::snprintf(line, sizeof(line), "plan-families: %lld ops in %.2f s (1 client), tail level p%g",
                static_cast<long long>(plain.loop.attempted), plain.loop.elapsed,
                tailLevel(cfg.workload) * 100);
  out.notes.insert(out.notes.begin(), line);
  return out;
}

// --- exec ----------------------------------------------------------------------------

struct ExecPlan {
  std::vector<ExecOp> ops;
  /// Partitions by (shape, ratio) text, built once in set-up.
  std::map<std::string, pushpart::Partition> partitions;

  /// Partition identity: shape and ratio.
  static std::string key(const ExecOp& op) {
    return std::string(pushpart::candidateName(op.shape)) + "@" + op.ratio.str();
  }
  /// Configuration identity: partition and algorithm.
  static std::string config(const ExecOp& op) {
    return key(op) + "/" + pushpart::algoName(op.algo);
  }
  const pushpart::Partition& partition(const ExecOp& op) const {
    return partitions.at(key(op));
  }
};

pushpart::ExecOptions execOptions(const ExecOp& op) {
  pushpart::ExecOptions opts;
  opts.machine.ratio = op.ratio;
  opts.machine.sendElementSeconds = 8.0 / (kExecBandwidthMBs * 1e6);
  opts.verify = true;
  opts.paceCommunication = false;
  opts.seed = op.matrixSeed;
  return opts;
}

/// The partitions of the op stream, and one untimed warm-up op that pays
/// the executor's first-call costs (thread start-up, first touch of the
/// matrices) before timing.
ExecPlan setupExec(const std::vector<ExecOp>& ops) {
  ExecPlan plan;
  plan.ops = ops;
  for (const ExecOp& op : plan.ops)
    if (!plan.partitions.count(ExecPlan::key(op)))
      plan.partitions.emplace(ExecPlan::key(op),
                              pushpart::makeCandidate(op.shape, op.n, op.ratio));
  const ExecOp& first = plan.ops.front();
  (void)pushpart::runParallelMMM(first.algo, plan.partition(first), execOptions(first));
  return plan;
}

struct ExecRecord {
  std::size_t op = 0;
  pushpart::ExecResult result;
  double callSeconds = 0.0;
};

struct ExecPhaseOut {
  LoopStats loop;
  double wallSum = 0.0;  ///< Sum of op latencies (ExecResult::wallSeconds).
  std::vector<ExecRecord> records;
  std::vector<std::string> errors;
};

ExecPhaseOut runExecPhase(const ExecPlan& plan, double duration, Tracer* tracer) {
  ExecPhaseOut out;
  const std::int64_t start = nowNs();
  for (std::size_t i = 0;; ++i) {
    // Stop only between ratio pairs, so both ratios are run equally often.
    if (i % 2 == 0 && seconds(start, nowNs()) >= duration) break;
    const ExecOp& op = plan.ops[i % plan.ops.size()];
    pushpart::ExecOptions opts = execOptions(op);
    std::int64_t multiplied = 0;
    if (tracer != nullptr)
      opts.telemetry = [&multiplied](const pushpart::PhaseSample&) { multiplied = nowNs(); };
    ++out.loop.attempted;
    const std::int64_t t0 = nowNs();
    try {
      ExecRecord rec{i % plan.ops.size(),
                     pushpart::runParallelMMM(op.algo, plan.partition(op), opts), 0.0};
      const std::int64_t t1 = nowNs();
      rec.callSeconds = seconds(t0, t1);
      out.loop.latencies.push_back(rec.result.wallSeconds);
      out.wallSum += rec.result.wallSeconds;
      if (tracer != nullptr) {
        const std::uint64_t root = tracer->newId(0);
        tracer->record(0, {root, 0, i, "exec.run", t0, t1});
        tracer->record(0, {tracer->newId(0), root, i, "exec.multiply", t0, multiplied});
        tracer->record(0, {tracer->newId(0), root, i, "exec.verify", multiplied, t1});
      }
      out.records.push_back(std::move(rec));
    } catch (const std::exception& e) {
      ++out.loop.failed;
      out.errors.push_back(std::string("runParallelMMM threw: ") + e.what());
    }
  }
  out.loop.elapsed = seconds(start, nowNs());
  return out;
}

std::int64_t checkExecPhase(const ExecPhaseOut& ph, CheckLog& log) {
  for (const std::string& e : ph.errors) log.fail(e);
  std::int64_t failed = 0;
  for (const ExecRecord& r : ph.records)
    if (!checkExecResult(r.result, log)) ++failed;
  return failed;
}

/// Communication-optimality gap of the partitions this phase executed, each
/// distinct (shape, ratio) counted once.
double execGapPct(const ExecPlan& plan, const ExecPhaseOut& ph) {
  std::map<std::string, double> gaps;
  for (const ExecRecord& r : ph.records) {
    const ExecOp& op = plan.ops[r.op];
    gaps.emplace(ExecPlan::key(op),
                 pushpart::optimalityGapPct(plan.partition(op).volumeOfCommunication(),
                                            pushpart::vocLowerBound(op.n, op.ratio)));
  }
  std::vector<double> v;
  for (const auto& [k, g] : gaps) v.push_back(g);
  return mean(v);
}

void setExecLayers(Metrics& m, const ExecPlan& plan, const ExecPhaseOut& ph) {
  using pushpart::Proc;
  const std::pair<Proc, const char*> procs[] = {{Proc::P, "P"}, {Proc::R, "R"}, {Proc::S, "S"}};
  for (const auto& [proc, name] : procs) {
    std::vector<double> busy;
    std::vector<double> gmacs;
    for (const ExecRecord& r : ph.records) {
      const ExecOp& op = plan.ops[r.op];
      const double b = r.result.computeSeconds[pushpart::procSlot(proc)];
      busy.push_back(b);
      const double macs = static_cast<double>(plan.partition(op).count(proc)) * op.n;
      if (b > 0.0) gmacs.push_back(macs / b / 1e9);
    }
    m.set(std::string("exec.busy_s.") + name, median(busy), "s");
    m.set(std::string("exec.gmacs.") + name, median(gmacs), "GMAC/s");
  }
  std::vector<double> verify;
  std::map<std::string, const ExecRecord*> perConfig;  // first run of each
  for (const ExecRecord& r : ph.records) {
    verify.push_back(r.callSeconds - r.result.wallSeconds);
    perConfig.emplace(ExecPlan::config(plan.ops[r.op]), &r);
  }
  m.set("exec.verify_s", median(verify), "s");
  double commElements = 0.0;
  double commModel = 0.0;
  double macs = 0.0;
  for (const auto& [k, r] : perConfig) {
    commElements += static_cast<double>(r->result.commElements);
    commModel += r->result.commSeconds;
    const double n = plan.ops[r->op].n;
    macs += n * n * n;
  }
  m.set("exec.comm_elements", commElements, "count");
  m.set("exec.comm_model_s", commModel, "s");
  m.set("exec.macs", macs, "count");
}

RunResult runExec(const RunConfig& cfg) {
  RunResult out;
  CheckLog log;
  std::vector<double> setupS;
  const std::vector<ExecOp> ops =
      execStream(cfg.seed, 16 + 4 * static_cast<std::size_t>(std::max(1.0, cfg.seconds)));
  ExecPlan plan;
  for (const std::int64_t start = nowNs(); moreSetups(start, setupS.size(), kExecSetupReps);) {
    const std::int64_t t0 = nowNs();
    plan = setupExec(ops);
    setupS.push_back(seconds(t0, nowNs()));
  }
  const ExecPhaseOut plain = runExecPhase(plan, cfg.seconds, nullptr);
  const double peakRss = peakRssMb();
  out.attempted += plain.loop.attempted;
  out.failed += plain.loop.failed;
  std::int64_t failedChecks = checkExecPhase(plain, log);
  const auto opsPerS = [](const ExecPhaseOut& ph) {
    return opsPerSecond(ph.loop, ph.wallSum);
  };

  if (!cfg.trace) {
    setEndToEnd(out.metrics, median(setupS), plain.loop, plain.wallSum,
                tailLevel(cfg.workload), execGapPct(plan, plain), peakRss);
  } else {
    Tracer tracer(1);
    const ExecPhaseOut ph = runExecPhase(plan, cfg.seconds, &tracer);
    out.attempted += ph.loop.attempted;
    out.failed += ph.loop.failed;
    failedChecks += checkExecPhase(ph, log);
    declarePerLayer(out.metrics);
    setExecLayers(out.metrics, plan, ph);
    out.metrics.set("bounds.gap_pct", execGapPct(plan, ph), "%");
    probeSerialMultiply(kExecN, out.metrics);
    finishTrace(out, cfg, tracer, opsPerS(plain), opsPerS(ph), log);
  }
  finishChecks(out, log, failedChecks);
  char line[160];
  std::snprintf(line, sizeof(line),
                "exec: %lld ops at n=%d in %.2f s (%.2f s in the executor), tail level p%g",
                static_cast<long long>(plain.loop.attempted), kExecN, plain.loop.elapsed,
                plain.wallSum, tailLevel(cfg.workload) * 100);
  out.notes.insert(out.notes.begin(), line);
  return out;
}

}  // namespace

RunResult runWorkload(const RunConfig& config) {
  switch (config.workload) {
    case Workload::kServeMix: return runServeMix(config);
    case Workload::kPlanFamilies: return runPlanFamilies(config);
    case Workload::kExec: return runExec(config);
  }
  return {};
}

}  // namespace pushbench
