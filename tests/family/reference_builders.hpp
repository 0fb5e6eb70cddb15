// Frozen cell-by-cell constructors of every 3-processor candidate: the six
// canonical shapes, the layered specs and the hierarchical specs, exactly as
// they painted an n×n grid before candidates became owner-rectangle
// descriptors. They are the reference the descriptor path is
// differential-tested against (descriptor_differential_test.cpp), so they
// must not be edited to follow the library: a change of shape belongs in
// both places, on purpose.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "family/hierarchical.hpp"
#include "family/layered.hpp"
#include "grid/partition.hpp"
#include "grid/ratio.hpp"
#include "shapes/candidates.hpp"
#include "support/check.hpp"

namespace pushpart::reference {

inline std::int64_t ceilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// --- canonical shapes ------------------------------------------------------

inline int squareSide(std::int64_t count) {
  return std::max<int>(
      1, static_cast<int>(std::llround(std::sqrt(static_cast<double>(count)))));
}

inline void fillRowsFirst(Partition& q, Proc x, int c0, int c1, int r0, int dr,
                          std::int64_t count) {
  std::int64_t remaining = count;
  for (int r = r0; r >= 0 && r < q.n() && remaining > 0; r += dr) {
    for (int c = c0; c < c1 && remaining > 0; ++c) {
      if (q.at(r, c) != Proc::P) continue;
      q.set(r, c, x);
      --remaining;
    }
  }
  PUSHPART_CHECK_MSG(remaining == 0, "band too small");
}

inline void fillColsFirst(Partition& q, Proc x, int r0, int r1, int c0, int dc,
                          std::int64_t count, bool fromBottom = false) {
  std::int64_t remaining = count;
  for (int c = c0; c >= 0 && c < q.n() && remaining > 0; c += dc) {
    if (fromBottom) {
      for (int r = r1 - 1; r >= r0 && remaining > 0; --r) {
        if (q.at(r, c) != Proc::P) continue;
        q.set(r, c, x);
        --remaining;
      }
    } else {
      for (int r = r0; r < r1 && remaining > 0; ++r) {
        if (q.at(r, c) != Proc::P) continue;
        q.set(r, c, x);
        --remaining;
      }
    }
  }
  PUSHPART_CHECK_MSG(remaining == 0, "band too small");
}

inline int proportionalBoundary(int n, std::int64_t eR, std::int64_t eS) {
  const auto lo = ceilDiv(eR, n);
  const auto hi = static_cast<std::int64_t>(n) - ceilDiv(eS, n);
  PUSHPART_CHECK_MSG(lo <= hi, "bands do not fit: n=" << n);
  const auto want = static_cast<std::int64_t>(
      std::llround(static_cast<double>(n) * static_cast<double>(eR) /
                   static_cast<double>(eR + eS)));
  return static_cast<int>(std::clamp(want, lo, hi));
}

struct Counts {
  std::int64_t eR;
  std::int64_t eS;
};

inline Counts countsFor(int n, const Ratio& ratio) {
  const auto c = ratio.elementCounts(n);
  return {c[procSlot(Proc::R)], c[procSlot(Proc::S)]};
}

inline double rectangleCornerSplit(const Ratio& ratio) {
  const double sr = std::sqrt(ratio.r);
  const double ss = std::sqrt(ratio.s);
  return sr / (sr + ss);
}

struct CornerWidths {
  int wR;
  int wS;
  bool feasible;
};

inline CornerWidths rectangleCornerWidths(int n, const Counts& e) {
  const auto minWR = static_cast<int>(ceilDiv(e.eR, n));
  const auto minWS = static_cast<int>(ceilDiv(e.eS, n));
  if (minWR + minWS > n) return {0, 0, false};
  const Ratio probe{1, static_cast<double>(e.eR), static_cast<double>(e.eS)};
  int wR = static_cast<int>(
      std::llround(reference::rectangleCornerSplit(probe) * n));
  wR = std::clamp(wR, minWR, n - minWS);
  wR = std::max(wR, 1);
  return {wR, n - wR, true};
}

inline bool candidateFeasible(CandidateShape shape, int n, const Ratio& ratio) {
  if (n <= 0 || !ratio.valid()) return false;
  const Counts e = countsFor(n, ratio);
  if (e.eR <= 0 || e.eS <= 0) return false;
  switch (shape) {
    case CandidateShape::kSquareCorner: {
      const int aR = squareSide(e.eR);
      const int aS = squareSide(e.eS);
      const auto hR = ceilDiv(e.eR, aR);
      const auto hS = ceilDiv(e.eS, aS);
      return aR + aS <= n && hR + hS <= n;
    }
    case CandidateShape::kRectangleCorner:
      return rectangleCornerWidths(n, e).feasible;
    case CandidateShape::kSquareRectangle: {
      const auto wR = ceilDiv(e.eR, n);
      const int aS = squareSide(e.eS);
      return wR + aS <= n && ceilDiv(e.eS, aS) <= n;
    }
    case CandidateShape::kBlockRectangle:
      return ceilDiv(e.eR, n) + ceilDiv(e.eS, n) <= n;
    case CandidateShape::kLRectangle: {
      const auto wR = ceilDiv(e.eR, n);
      return wR < n && ceilDiv(e.eS, n - wR) <= n;
    }
    case CandidateShape::kTraditionalRectangle:
      return ceilDiv(e.eR, n) + ceilDiv(e.eS, n) <= n;
  }
  return false;
}

inline Partition makeCandidate(CandidateShape shape, int n,
                               const Ratio& ratio) {
  if (!reference::candidateFeasible(shape, n, ratio))
    throw std::invalid_argument(std::string(candidateName(shape)) +
                                " infeasible for n=" + std::to_string(n) +
                                " ratio " + ratio.str());
  const Counts e = countsFor(n, ratio);
  Partition q(n, Proc::P);
  switch (shape) {
    case CandidateShape::kSquareCorner: {
      const int aR = squareSide(e.eR);
      const int aS = squareSide(e.eS);
      fillRowsFirst(q, Proc::R, 0, aR, 0, +1, e.eR);
      fillRowsFirst(q, Proc::S, n - aS, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kRectangleCorner: {
      const CornerWidths w = rectangleCornerWidths(n, e);
      fillRowsFirst(q, Proc::R, 0, w.wR, 0, +1, e.eR);
      fillRowsFirst(q, Proc::S, n - w.wS, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kSquareRectangle: {
      const int aS = squareSide(e.eS);
      fillColsFirst(q, Proc::R, 0, n, 0, +1, e.eR, /*fromBottom=*/true);
      fillRowsFirst(q, Proc::S, n - aS, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kBlockRectangle: {
      const int cb = proportionalBoundary(n, e.eR, e.eS);
      fillRowsFirst(q, Proc::R, 0, cb, n - 1, -1, e.eR);
      fillRowsFirst(q, Proc::S, cb, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kLRectangle: {
      const auto wR = static_cast<int>(ceilDiv(e.eR, n));
      fillColsFirst(q, Proc::R, 0, n, 0, +1, e.eR, /*fromBottom=*/true);
      fillRowsFirst(q, Proc::S, wR, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kTraditionalRectangle: {
      const int rb = proportionalBoundary(n, e.eR, e.eS);
      fillColsFirst(q, Proc::R, 0, rb, n - 1, -1, e.eR);
      fillColsFirst(q, Proc::S, rb, n, n - 1, -1, e.eS);
      break;
    }
  }
  return q;
}

// --- layered specs ---------------------------------------------------------

inline std::vector<int> allotLines(int n, const std::vector<int>& minLines,
                                   const std::vector<double>& targetLines) {
  std::vector<int> out = minLines;
  int used = 0;
  for (const int m : out) used += m;
  if (used > n) return {};
  int surplus = n - used;
  while (surplus > 0) {
    std::size_t pick = 0;
    double bestDeficit = -1e300;
    for (std::size_t k = 0; k < out.size(); ++k) {
      const double deficit = targetLines[k] - static_cast<double>(out[k]);
      if (deficit > bestDeficit) {
        bestDeficit = deficit;
        pick = k;
      }
    }
    ++out[pick];
    --surplus;
  }
  return out;
}

inline bool carveBox(Partition& q, Proc base, Proc x, int r0, int r1, int c0,
                     int c1, std::int64_t count, bool colMajor = false) {
  std::int64_t remaining = count;
  if (colMajor) {
    for (int c = c0; c < c1 && remaining > 0; ++c)
      for (int r = r0; r < r1 && remaining > 0; ++r)
        if (q.at(r, c) == base) {
          q.set(r, c, x);
          --remaining;
        }
  } else {
    for (int r = r0; r < r1 && remaining > 0; ++r)
      for (int c = c0; c < c1 && remaining > 0; ++c)
        if (q.at(r, c) == base) {
          q.set(r, c, x);
          --remaining;
        }
  }
  return remaining == 0;
}

struct LayerMember {
  Proc owner;
  std::int64_t count = 0;
};

inline bool buildLayeredOnto(
    Partition& q, Proc base,
    const std::vector<std::vector<LayerMember>>& layers, bool rowBands) {
  const int n = q.n();
  const auto nn = static_cast<std::int64_t>(n);
  const auto carvedNeed = [&](std::size_t k, std::int64_t d) {
    std::int64_t need = 0;
    for (const auto& m : layers[k])
      if (m.owner != base) need += ceilDiv(m.count, d);
    return need;
  };
  std::vector<int> minDepth;
  std::vector<double> targetDepth;
  for (const auto& layer : layers) {
    std::int64_t total = 0, carved = 0;
    for (const auto& m : layer) {
      total += m.count;
      if (m.owner != base) carved += m.count;
    }
    if (total <= 0) return false;
    minDepth.push_back(std::max(1, static_cast<int>(ceilDiv(carved, nn))));
    targetDepth.push_back(static_cast<double>(total) / static_cast<double>(n));
  }
  std::vector<int> depth = allotLines(n, minDepth, targetDepth);
  for (int pass = 0; pass < n && !depth.empty(); ++pass) {
    int tight = -1;
    for (std::size_t k = 0; k < layers.size(); ++k) {
      if (carvedNeed(k, depth[k]) > nn) {
        tight = static_cast<int>(k);
        break;
      }
    }
    if (tight < 0) break;
    int donor = -1;
    for (std::size_t k = 0; k < layers.size(); ++k) {
      if (static_cast<int>(k) == tight || depth[k] <= minDepth[k]) continue;
      if (carvedNeed(k, depth[k] - 1) <= nn) {
        donor = static_cast<int>(k);
        break;
      }
    }
    if (donor < 0) return false;
    ++depth[static_cast<std::size_t>(tight)];
    --depth[static_cast<std::size_t>(donor)];
  }
  if (depth.empty()) return false;

  int d0 = 0;
  for (std::size_t k = 0; k < layers.size(); ++k) {
    const int d1 = d0 + depth[k];
    std::vector<int> minWidth;
    std::vector<double> targetWidth;
    for (const auto& m : layers[k]) {
      minWidth.push_back(m.owner == base
                             ? 0
                             : static_cast<int>(ceilDiv(m.count, depth[k])));
      targetWidth.push_back(static_cast<double>(m.count) /
                            static_cast<double>(depth[k]));
    }
    const std::vector<int> width = allotLines(n, minWidth, targetWidth);
    if (width.empty()) return false;
    int w0 = 0;
    for (std::size_t m = 0; m < layers[k].size(); ++m) {
      const int w1 = w0 + width[m];
      if (layers[k][m].owner != base) {
        const bool ok =
            rowBands ? carveBox(q, base, layers[k][m].owner, d0, d1, w0, w1,
                                layers[k][m].count)
                     : carveBox(q, base, layers[k][m].owner, w0, w1, d0, d1,
                                layers[k][m].count, /*colMajor=*/true);
        if (!ok) return false;
      }
      w0 = w1;
    }
    d0 = d1;
  }
  return true;
}

inline std::optional<Partition> makeLayeredPartition(int n, const Ratio& ratio,
                                                     const LayeredSpec& spec) {
  if (n <= 0 || !ratio.valid()) return std::nullopt;
  const auto counts = ratio.elementCounts(n);
  std::vector<std::vector<LayerMember>> layers;
  for (const auto& band : spec.layers) {
    auto& out = layers.emplace_back();
    for (const Proc p : band) out.push_back({p, counts[procSlot(p)]});
  }
  Partition q(n, Proc::P);
  if (!buildLayeredOnto(q, Proc::P, layers, spec.rowBands)) return std::nullopt;
  return q;
}

// --- hierarchical specs ----------------------------------------------------

inline std::vector<std::pair<int, int>> boxCells(int r0, int r1, int c0, int c1,
                                                 bool rowMajor, int hr0 = 0,
                                                 int hr1 = 0, int hc0 = 0,
                                                 int hc1 = 0) {
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(r1 - r0) *
              static_cast<std::size_t>(c1 - c0));
  const auto inHole = [&](int r, int c) {
    return r >= hr0 && r < hr1 && c >= hc0 && c < hc1;
  };
  if (rowMajor) {
    for (int r = r0; r < r1; ++r)
      for (int c = c0; c < c1; ++c)
        if (!inHole(r, c)) out.emplace_back(r, c);
  } else {
    for (int c = c0; c < c1; ++c)
      for (int r = r0; r < r1; ++r)
        if (!inHole(r, c)) out.emplace_back(r, c);
  }
  return out;
}

inline bool carveCells(Partition& q, Proc base, Proc x,
                       const std::vector<std::pair<int, int>>& cells,
                       std::size_t& cursor, std::int64_t count) {
  std::int64_t remaining = count;
  while (remaining > 0 && cursor < cells.size()) {
    const auto [r, c] = cells[cursor++];
    if (q.at(r, c) != base) continue;
    q.set(r, c, x);
    --remaining;
  }
  return remaining == 0;
}

inline std::int64_t ceilSqrt(std::int64_t cells) {
  auto side = static_cast<std::int64_t>(
      std::ceil(std::sqrt(static_cast<double>(cells))));
  while (side * side < cells) ++side;
  while (side > 1 && (side - 1) * (side - 1) >= cells) --side;
  return side;
}

inline std::optional<Partition> makeHierPartition(int n, const Ratio& ratio,
                                                  const HierSpec& spec) {
  if (n <= 0 || !ratio.valid()) return std::nullopt;
  if (spec.group[0] == spec.group[1]) return std::nullopt;
  const auto counts = ratio.elementCounts(n);
  const auto countOf = [&](Proc p) { return counts[procSlot(p)]; };
  Proc singleton = Proc::P;
  for (const Proc p : kAllProcs)
    if (p != spec.group[0] && p != spec.group[1]) singleton = p;
  const bool pInGroup = spec.group[0] == Proc::P || spec.group[1] == Proc::P;
  std::vector<Proc> regionMembers, restMembers;
  if (pInGroup) {
    regionMembers = {singleton};
    restMembers = {spec.group[0], spec.group[1]};
  } else {
    regionMembers = {spec.group[0], spec.group[1]};
    restMembers = {singleton};
  }
  std::int64_t regionCount = 0;
  for (const Proc p : regionMembers) regionCount += countOf(p);
  if (regionCount <= 0) return std::nullopt;

  int r0 = 0, r1 = n, c0 = 0, c1 = n;
  switch (spec.placement) {
    case GroupPlacement::kCornerSquare: {
      const std::int64_t side = ceilSqrt(regionCount);
      if (side >= n) return std::nullopt;
      r0 = n - static_cast<int>(side);
      c0 = n - static_cast<int>(side);
      break;
    }
    case GroupPlacement::kRightStrip: {
      const std::int64_t w = ceilDiv(regionCount, n);
      if (w >= n) return std::nullopt;
      c0 = n - static_cast<int>(w);
      break;
    }
    case GroupPlacement::kTopStrip: {
      const std::int64_t h = ceilDiv(regionCount, n);
      if (h >= n) return std::nullopt;
      r1 = static_cast<int>(h);
      break;
    }
  }

  Partition q(n, Proc::P);
  const auto region = boxCells(r0, r1, c0, c1, spec.regionRowMajor);
  std::size_t cursor = 0;
  for (const Proc p : regionMembers)
    if (!carveCells(q, Proc::P, p, region, cursor, countOf(p)))
      return std::nullopt;
  const auto rest = boxCells(0, n, 0, n, spec.restRowMajor, r0, r1, c0, c1);
  cursor = 0;
  for (const Proc p : restMembers) {
    if (p == Proc::P) {
      cursor += static_cast<std::size_t>(countOf(p));
      continue;
    }
    if (!carveCells(q, Proc::P, p, rest, cursor, countOf(p)))
      return std::nullopt;
  }
  return q;
}

}  // namespace pushpart::reference
