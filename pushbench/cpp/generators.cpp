#include "generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_set>

#include "support/rng.hpp"

namespace pushbench {

using pushpart::Algo;
using pushpart::CandidateShape;
using pushpart::PlanRequest;
using pushpart::PlanTier;
using pushpart::Ratio;
using pushpart::Rng;

namespace {

/// Stratified draws in [0, 1): each block of `block` consecutive values
/// visits every stratum [k/block, (k+1)/block) once, in a seeded order. With
/// `jitter` the value is uniform within its stratum, otherwise it is the
/// stratum's midpoint, so every full block holds the same values.
class Strata {
 public:
  Strata(Rng& rng, std::size_t block, bool jitter)
      : rng_(rng), order_(block), pos_(block), jitter_(jitter) {}

  double next() {
    if (pos_ == order_.size()) {
      std::iota(order_.begin(), order_.end(), std::size_t{0});
      rng_.shuffle(order_);
      pos_ = 0;
    }
    const double stratum = static_cast<double>(order_[pos_++]);
    return (stratum + (jitter_ ? rng_.real() : 0.5)) /
           static_cast<double>(order_.size());
  }

 private:
  Rng& rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_;  // == order_.size() forces a refill
  bool jitter_;
};

int logUniform(double u, int lo, int hi) {
  const double v = std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
  return std::clamp(static_cast<int>(std::lround(v)), lo, hi);
}

int uniformInt(double u, int lo, int hi) {
  return std::clamp(lo + static_cast<int>(u * (hi - lo + 1)), lo, hi);
}

/// One seeded slot in every block of `block` indices: true at that slot.
class OnePerBlock {
 public:
  OnePerBlock(Rng& rng, std::size_t block) : rng_(rng), block_(block) {}
  bool next() {
    if (pos_ % block_ == 0) pick_ = static_cast<std::size_t>(rng_.below(block_));
    return pos_++ % block_ == pick_;
  }

 private:
  Rng& rng_;
  std::size_t block_;
  std::size_t pos_ = 0;
  std::size_t pick_ = 0;
};

constexpr std::size_t kPaperEvery = 8;

/// Ratio source shared by the plan streams: every kPaperEvery-th draw (at a
/// seeded slot per block) is the next of the paper's 11 ratios; the rest are
/// off-grid points of the Fig. 13 plane, P_r in [1, 20] and R_r in
/// [1, min(P_r, 10)], S_r = 1, with P_r and R_r stratified independently.
/// The stratum midpoints P_r = 1 + 19(k + 1/2)/16 are never integers, so no
/// point lands on the unit atlas grid.
class RatioSource {
 public:
  explicit RatioSource(Rng& rng)
      : paperSlot_(rng, kPaperEvery), p_(rng, 16, false), r_(rng, 16, false) {}
  Ratio next() {
    if (paperSlot_.next())
      return pushpart::paperRatios()[paper_++ % pushpart::paperRatios().size()];
    const double p = 1.0 + 19.0 * p_.next();
    return Ratio{p, 1.0 + (std::min(p, 10.0) - 1.0) * r_.next(), 1.0};
  }

 private:
  OnePerBlock paperSlot_;
  Strata p_;
  Strata r_;
  std::size_t paper_ = 0;
};

void appendRequest(std::string& out, const PlanRequest& r) {
  char line[256];
  std::snprintf(line, sizeof(line), "%d %.17g %.17g %.17g %d %d %d %d %d %llu\n",
                r.n, r.ratio.p, r.ratio.r, r.ratio.s, static_cast<int>(r.algo),
                static_cast<int>(r.topology), static_cast<int>(r.star.hub),
                static_cast<int>(r.tier), r.searchRuns,
                static_cast<unsigned long long>(r.searchSeed));
  out += line;
}

}  // namespace

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kServeMix: return "serve-mix";
    case Workload::kPlanFamilies: return "plan-families";
    case Workload::kExec: return "exec";
  }
  return "?";
}

bool parseWorkload(const std::string& text, Workload& out) {
  for (Workload w : {Workload::kServeMix, Workload::kPlanFamilies, Workload::kExec}) {
    if (text == workloadName(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

ServeMixStream serveMixStream(std::uint64_t seed, std::size_t opsPerClient) {
  Rng rng(seed ^ 0x5E12'F1C5'0000'0001ull);
  ServeMixStream out;
  out.universe.reserve(kServeUniverse);
  Strata tierASize(rng, 16, false);
  Strata tierBSize(rng, 8, false);
  OnePerBlock tierBSlot(rng, 4);
  // One ratio stream per tier, so each tier covers the plane evenly.
  RatioSource tierARatios(rng);
  RatioSource tierBRatios(rng);
  for (std::size_t k = 0; k < kServeUniverse; ++k) {
    PlanRequest req;
    const bool tierB = tierBSlot.next();
    req.ratio = tierB ? tierBRatios.next() : tierARatios.next();
    if (tierB) {
      req.tier = PlanTier::kSearch;
      req.n = uniformInt(tierBSize.next(), 128, 384);
      req.searchRuns = kServeSearchRuns;
      req.searchSeed = 1 + rng.below(1u << 31);
    } else {
      req.tier = PlanTier::kFast;
      req.n = logUniform(tierASize.next(), 256, 3000);
    }
    out.universe.push_back(req);
  }

  // Zipf popularity by rank, drawn by inverse CDF from stratified uniforms.
  std::vector<double> cdf(kServeUniverse);
  double total = 0.0;
  for (std::size_t k = 0; k < kServeUniverse; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  out.clients.resize(static_cast<std::size_t>(kServeClients));
  for (auto& client : out.clients) {
    Strata draws(rng, 256, true);
    client.reserve(opsPerClient);
    for (std::size_t i = 0; i < opsPerClient; ++i) {
      const double u = draws.next();
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      client.push_back(static_cast<std::uint32_t>(
          std::min<std::ptrdiff_t>(it - cdf.begin(),
                                   static_cast<std::ptrdiff_t>(kServeUniverse) - 1)));
    }
  }
  return out;
}

std::vector<PlanRequest> planFamiliesStream(std::uint64_t seed,
                                            std::size_t count) {
  Rng rng(seed ^ 0xFA31'1E50'0000'0002ull);
  Strata sizes(rng, 16, false);
  RatioSource ratios(rng);
  std::unordered_set<std::string> seen;
  std::vector<PlanRequest> out;
  out.reserve(count);
  while (out.size() < count) {
    PlanRequest req;
    req.tier = PlanTier::kFast;
    req.ratio = ratios.next();
    req.n = logUniform(sizes.next(), 128, 1024);
    // Never repeat a key: nudge n until the canonical key is new.
    while (!seen.insert(pushpart::canonicalize(req).text).second)
      req.n = req.n < 1024 ? req.n + 1 : 128;
    out.push_back(req);
  }
  return out;
}

std::vector<ExecOp> execStream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed ^ 0xE8EC'0000'0000'0004ull);
  const Ratio ratios[2] = {Ratio{4, 1, 1}, Ratio{12, 1, 1}};
  const CandidateShape shapes[2] = {CandidateShape::kSquareCorner,
                                    CandidateShape::kBlockRectangle};
  const Algo algos[2] = {Algo::kSCB, Algo::kPCB};
  std::vector<ExecOp> out;
  out.reserve(count);
  std::vector<int> order[2] = {{0, 1, 2, 3}, {0, 1, 2, 3}};
  while (out.size() < count) {
    rng.shuffle(order[0]);
    rng.shuffle(order[1]);
    for (std::size_t k = 0; k < 4 && out.size() < count; ++k) {
      for (int ri = 0; ri < 2 && out.size() < count; ++ri) {
        const int c = order[ri][k];
        ExecOp op;
        op.ratio = ratios[ri];
        op.shape = shapes[c / 2];
        op.algo = algos[c % 2];
        op.n = kExecN;
        op.matrixSeed = 1 + rng.below(1u << 31);
        out.push_back(op);
      }
    }
  }
  return out;
}

std::string streamText(const ServeMixStream& s) {
  std::string out;
  for (const PlanRequest& r : s.universe) appendRequest(out, r);
  for (const auto& client : s.clients) {
    out += "client";
    for (std::uint32_t k : client) {
      out += ' ';
      out += std::to_string(k);
    }
    out += "\n";
  }
  return out;
}

std::string streamText(const std::vector<PlanRequest>& s) {
  std::string out;
  for (const PlanRequest& r : s) appendRequest(out, r);
  return out;
}

std::string streamText(const std::vector<ExecOp>& s) {
  std::string out;
  for (const ExecOp& op : s) {
    char line[160];
    std::snprintf(line, sizeof(line), "%d %.17g %.17g %.17g %d %d %llu\n",
                  static_cast<int>(op.shape), op.ratio.p, op.ratio.r,
                  op.ratio.s, static_cast<int>(op.algo), op.n,
                  static_cast<unsigned long long>(op.matrixSeed));
    out += line;
  }
  return out;
}

}  // namespace pushbench
