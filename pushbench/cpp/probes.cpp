#include "probes.hpp"

#include <algorithm>

#include "atlas/builder.hpp"
#include "bounds/bounds.hpp"
#include "dfa/batch.hpp"
#include "exec/kij_executor.hpp"
#include "exec/matrix.hpp"
#include "family/rank.hpp"
#include "model/models.hpp"
#include "model/optimal.hpp"
#include "serve/oracle.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace pushbench {

using pushpart::PlanRequest;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json declares them.
constexpr LayerMetric kPerLayer[] = {
    {"serve.hit_us", "us"},
    {"serve.lookup_us", "us"},
    {"serve.canonicalize_us", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.evictions", "count"},
    {"serve.cache.coalesced", "count"},
    {"serve.share.cache", "ratio"},
    {"serve.share.tier_a", "ratio"},
    {"serve.share.atlas", "ratio"},
    {"serve.share.tier_b", "ratio"},
    {"serve.time_share.tier_b", "ratio"},
    {"serve.snapshot_save_ms", "ms"},
    {"serve.snapshot_load_ms", "ms"},
    {"tier_a.solve_ms", "ms"},
    {"model.select_optimal_ms", "ms"},
    {"shapes.make_candidate_ns_per_cell", "ns"},
    {"model.eval_model_ns_per_cell", "ns"},
    {"shapes.candidates_feasible", "count"},
    {"bounds.voc_lower_bound_us", "us"},
    {"bounds.gap_pct", "%"},
    {"family.rank_ms", "ms"},
    {"family.rank_ns_per_cell", "ns"},
    {"family.candidates_per_solve", "count"},
    {"family.ext_win_ratio", "ratio"},
    {"atlas.build_s", "s"},
    {"atlas.load_ms", "ms"},
    {"atlas.lookup_us", "us"},
    {"atlas.solve_ms", "ms"},
    {"atlas.certified_ratio", "ratio"},
    {"dfa.walk_ms", "ms"},
    {"dfa.pushes_per_walk", "count"},
    {"dfa.sweeps_per_walk", "count"},
    {"dfa.push_ns", "ns"},
    {"dfa.walk_ns_per_cell", "ns"},
    {"dfa.condensed_ratio", "ratio"},
    {"dfa.confirmed_ratio", "ratio"},
    {"exec.busy_s.P", "s"},
    {"exec.busy_s.R", "s"},
    {"exec.busy_s.S", "s"},
    {"exec.gmacs.P", "GMAC/s"},
    {"exec.gmacs.R", "GMAC/s"},
    {"exec.gmacs.S", "GMAC/s"},
    {"exec.serial_gmacs", "GMAC/s"},
    {"exec.verify_s", "s"},
    {"exec.comm_elements", "count"},
    {"exec.comm_model_s", "s"},
    {"exec.macs", "count"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_pct", "%"},
    {"probe.select_optimal_ms.n300", "ms"},
    {"probe.select_optimal_ms.n1000", "ms"},
    {"probe.select_optimal_ms.n3000", "ms"},
    {"probe.family_rank_ms.n1000", "ms"},
    {"probe.atlas_cold_ms.n300", "ms"},
    {"probe.dfa_walk_ms.n1000", "ms"},
    {"probe.exec_gmacs_p.n768", "GMAC/s"},
};

double cells(int n) { return static_cast<double>(n) * static_cast<double>(n); }

/// Seconds per call of `fn`, repeated until at least `minSeconds` elapse
/// (so microsecond calls are not lost in clock resolution).
template <typename Fn>
double timePerCall(Fn&& fn, double minSeconds = 2e-4) {
  std::int64_t calls = 0;
  const std::int64_t start = nowNs();
  std::int64_t end = start;
  do {
    fn();
    ++calls;
    end = nowNs();
  } while (static_cast<double>(end - start) * 1e-9 < minSeconds);
  return static_cast<double>(end - start) * 1e-9 / static_cast<double>(calls);
}

pushpart::Machine withRatio(const pushpart::Machine& machine,
                            const pushpart::Ratio& ratio) {
  pushpart::Machine m = machine;
  m.ratio = ratio;
  return m;
}

// Fixed North-star inputs.
const pushpart::Ratio kProbeRatio{5, 2, 1};

}  // namespace

void declarePerLayer(Metrics& m) {
  for (const LayerMetric& lm : kPerLayer) m.set(lm.name, 0.0, lm.unit);
}

void probeRequestLayers(const std::vector<PlanRequest>& requests, Metrics& m) {
  std::vector<double> canon;
  std::vector<double> bound;
  for (const PlanRequest& req : requests) {
    canon.push_back(timePerCall([&] { (void)pushpart::canonicalize(req); }));
    bound.push_back(
        timePerCall([&] { (void)pushpart::vocLowerBound(req.n, req.ratio); }));
  }
  m.set("serve.canonicalize_us", median(canon) * 1e6, "us");
  m.set("bounds.voc_lower_bound_us", median(bound) * 1e6, "us");
}

void probeTierA(const std::vector<PlanRequest>& requests,
                const pushpart::Machine& machine, Metrics& m) {
  std::vector<double> make;
  std::vector<double> eval;
  std::vector<double> select;
  std::int64_t feasible = 0;
  for (const PlanRequest& req : requests) {
    const pushpart::Machine mm = withRatio(machine, req.ratio);
    for (pushpart::CandidateShape shape : pushpart::kAllCandidates) {
      if (!pushpart::candidateFeasible(shape, req.n, req.ratio)) continue;
      ++feasible;
      std::int64_t t0 = nowNs();
      const pushpart::Partition q = pushpart::makeCandidate(shape, req.n, req.ratio);
      std::int64_t t1 = nowNs();
      make.push_back(static_cast<double>(t1 - t0) / cells(req.n));
      t0 = nowNs();
      (void)pushpart::evalModel(req.algo, q, mm, req.topology, req.star);
      t1 = nowNs();
      eval.push_back(static_cast<double>(t1 - t0) / cells(req.n));
    }
    const std::int64_t t0 = nowNs();
    (void)pushpart::selectOptimal(req.algo, req.n, mm, req.topology, req.star);
    select.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
  }
  m.set("shapes.make_candidate_ns_per_cell", median(make), "ns");
  m.set("model.eval_model_ns_per_cell", median(eval), "ns");
  m.set("model.select_optimal_ms", median(select), "ms");
  m.set("shapes.candidates_feasible", static_cast<double>(feasible), "count");
}

void probeFamily(const std::vector<PlanRequest>& requests,
                 const pushpart::Machine& machine, Metrics& m) {
  std::vector<double> ms;
  std::vector<double> perCell;
  std::vector<double> count;
  for (const PlanRequest& req : requests) {
    const pushpart::Machine mm = withRatio(machine, req.ratio);
    const std::int64_t t0 = nowNs();
    (void)pushpart::bestFamilyCandidate(req.algo, req.n, mm,
                                        pushpart::FamilySet::all(),
                                        req.topology, req.star);
    const double ns = static_cast<double>(nowNs() - t0);
    ms.push_back(ns * 1e-6);
    perCell.push_back(ns / cells(req.n));
    count.push_back(static_cast<double>(
        pushpart::rankFamilyCandidates(req.algo, req.n, mm,
                                       pushpart::FamilySet::all(),
                                       req.topology, req.star)
            .size()));
  }
  m.set("family.rank_ms", median(ms), "ms");
  m.set("family.rank_ns_per_cell", median(perCell), "ns");
  m.set("family.candidates_per_solve", mean(count), "count");
}

void probeAtlasLookup(const pushpart::PlanAtlas& atlas,
                      const std::vector<pushpart::Ratio>& ratios, Metrics& m) {
  std::vector<double> us;
  for (const pushpart::Ratio& r : ratios)
    us.push_back(timePerCall([&] { (void)atlas.lookup(r); }) * 1e6);
  m.set("atlas.lookup_us", median(us), "us");
}

void probeSerialMultiply(int n, Metrics& m) {
  pushpart::Rng rng(7);
  const pushpart::Matrix a = pushpart::randomMatrix(n, rng);
  const pushpart::Matrix b = pushpart::randomMatrix(n, rng);
  const std::int64_t t0 = nowNs();
  const pushpart::Matrix c = pushpart::multiplySerial(a, b);
  const double seconds = static_cast<double>(nowNs() - t0) * 1e-9;
  m.set("exec.serial_gmacs", cells(n) * n / seconds / 1e9, "GMAC/s");
}

bool probeNorthStar(Metrics& m) {
  const pushpart::Machine machine = withRatio(pushpart::Machine{}, kProbeRatio);

  // Tier A: the six-candidate ranking at three sizes.
  const std::pair<int, int> sizes[] = {{300, 9}, {1000, 5}, {3000, 3}};
  for (const auto& [n, reps] : sizes) {
    std::vector<double> ms;
    for (int k = 0; k < reps; ++k) {
      const std::int64_t t0 = nowNs();
      (void)pushpart::selectOptimal(pushpart::Algo::kSCB, n, machine);
      ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    }
    m.set("probe.select_optimal_ms.n" + std::to_string(n), median(ms), "ms");
  }

  // Family registry ranking at n = 1000.
  {
    std::vector<double> ms;
    for (int k = 0; k < 3; ++k) {
      const std::int64_t t0 = nowNs();
      (void)pushpart::bestFamilyCandidate(pushpart::Algo::kSCB, 1000, machine,
                                          pushpart::FamilySet::all());
      ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    }
    m.set("probe.family_rank_ms.n1000", median(ms), "ms");
  }

  // Atlas-served cold answers at n = 300: distinct interior off-grid ratios
  // on solved, off-boundary cells of a Fig. 13 plane atlas.
  {
    pushpart::AtlasBuildOptions build;
    build.threads = 1;
    pushpart::OracleOptions opts;
    opts.atlas = pushpart::buildAtlas(build);
    opts.atlasPrefetch = false;
    pushpart::Oracle oracle(opts);
    pushpart::Rng rng(300);
    std::vector<double> ms;
    std::vector<double> all;
    while (all.size() < 9) {
      const pushpart::Ratio ratio{2.5 + 16.0 * rng.real(), 1.5 + 7.0 * rng.real(), 1.0};
      int i = -1;
      int j = -1;
      if (ratio.r > ratio.p || !opts.atlas->assign(ratio, i, j)) continue;
      const std::optional<pushpart::AtlasCell> cell = opts.atlas->cell(i, j);
      if (!cell || !cell->solved || cell->boundary) continue;
      PlanRequest req;
      req.n = 300;
      req.ratio = ratio;
      req.tier = pushpart::PlanTier::kSearch;
      req.searchRuns = 2;
      const pushpart::PlanResponse r = oracle.plan(req);
      all.push_back(r.latencySeconds * 1e3);
      if (r.answer.atlasServed) ms.push_back(r.latencySeconds * 1e3);
    }
    m.set("probe.atlas_cold_ms.n300", median(ms.empty() ? all : ms), "ms");
  }

  // One tier-B DFA walk at n = 1000.
  {
    pushpart::BatchOptions batch;
    batch.n = 1000;
    batch.ratio = kProbeRatio;
    batch.runs = 1;
    batch.threads = 1;
    batch.seed = 1;
    const std::int64_t t0 = nowNs();
    (void)pushpart::runBatch(batch, [](const pushpart::BatchRun&) {});
    m.set("probe.dfa_walk_ms.n1000", static_cast<double>(nowNs() - t0) * 1e-6,
          "ms");
  }

  // The executor's unthrottled P worker at n = 768 (Square-Corner, 4:1:1).
  {
    const int n = 768;
    const pushpart::Ratio ratio{4, 1, 1};
    const pushpart::Partition q = pushpart::makeCandidate(
        pushpart::CandidateShape::kSquareCorner, n, ratio);
    pushpart::ExecOptions opts;
    opts.machine.ratio = ratio;
    opts.verify = true;
    const pushpart::ExecResult r = pushpart::runParallelMMM(pushpart::Algo::kSCB, q, opts);
    const double busyP = r.computeSeconds[pushpart::procSlot(pushpart::Proc::P)];
    const double macsP = static_cast<double>(q.count(pushpart::Proc::P)) * n;
    m.set("probe.exec_gmacs_p.n768", busyP > 0.0 ? macsP / busyP / 1e9 : 0.0,
          "GMAC/s");
    return r.verified && r.maxAbsError < 1e-9;
  }
}

}  // namespace pushbench
