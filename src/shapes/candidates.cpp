#include "shapes/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/check.hpp"

namespace pushpart {

namespace {

std::int64_t ceilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Side of the near-square holding `count` cells.
int squareSide(std::int64_t count) {
  return std::max<int>(
      1, static_cast<int>(std::llround(std::sqrt(static_cast<double>(count)))));
}

/// Claims `count` cells for x along `run`; every construction below sizes
/// its bands so the cells fit.
void claim(PartitionDescriptor& q, Proc x, const LineRun& run,
           std::int64_t count) {
  const bool fits = q.carve(x, {run}, 0, count);
  PUSHPART_CHECK_MSG(fits, "band too small for " << procName(x) << ": "
                                                 << count << " cells asked");
}

/// Claims `count` cells for x from the band rows [r0 advancing by dr] ×
/// cols [c0, c1), row by row (each row left to right): a stack of full rows
/// plus one partial row — an asymptotically rectangular region with an
/// exact element count.
void fillRowsFirst(PartitionDescriptor& q, Proc x, int c0, int c1, int r0,
                   int dr, std::int64_t count) {
  const int rows = dr > 0 ? q.n() - r0 : r0 + 1;
  claim(q, x, LineRun{true, r0, dr, rows, c0, c1, false}, count);
}

/// Column-major variant: full columns plus one partial column. `fromBottom`
/// fills each column upward so the partial column's cells hug the bottom
/// edge — needed by the full-height-strip shapes, whose slack must land in
/// rows that already carry P (otherwise every row the slack touches gains a
/// third owner and the shape's VoC leaves its closed form).
void fillColsFirst(PartitionDescriptor& q, Proc x, int r0, int r1, int c0,
                   int dc, std::int64_t count, bool fromBottom = false) {
  const int cols = dc > 0 ? q.n() - c0 : c0 + 1;
  claim(q, x, LineRun{false, c0, dc, cols, r0, r1, fromBottom}, count);
}

/// Lane boundary splitting n lanes between R (lanes [0, boundary)) and S
/// (lanes [boundary, n)) in proportion to their element counts, clamped so
/// each side can hold its elements within n cells per lane. Used by the
/// Block- and Traditional-Rectangle constructions, which then fill each side
/// as an independent edge-aligned band (the two bands' depths differ by at
/// most ~1, the integer version of the canonical "equal heights").
int proportionalBoundary(int n, std::int64_t eR, std::int64_t eS) {
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

Counts countsFor(int n, const Ratio& ratio) {
  const auto c = ratio.elementCounts(n);
  return {c[procSlot(Proc::R)], c[procSlot(Proc::S)]};
}

/// Rectangle-Corner widths after clamping to heights that fit the matrix.
struct CornerWidths {
  int wR;
  int wS;
  bool feasible;
};

CornerWidths rectangleCornerWidths(int n, const Counts& e) {
  const auto minWR = static_cast<int>(ceilDiv(e.eR, n));
  const auto minWS = static_cast<int>(ceilDiv(e.eS, n));
  if (minWR + minWS > n) return {0, 0, false};
  const Ratio probe{1, static_cast<double>(e.eR), static_cast<double>(e.eS)};
  // Split the full width so combined perimeter is minimal (Eq. 13 boundary
  // optimum), then clamp so both heights fit.
  int wR = static_cast<int>(std::llround(rectangleCornerSplit(probe) * n));
  wR = std::clamp(wR, minWR, n - minWS);
  wR = std::max(wR, 1);
  return {wR, n - wR, true};
}

}  // namespace

double rectangleCornerSplit(const Ratio& ratio) {
  const double sr = std::sqrt(ratio.r);
  const double ss = std::sqrt(ratio.s);
  return sr / (sr + ss);
}

CandidateShape candidateFromName(const std::string& name) {
  for (CandidateShape s : kAllCandidates)
    if (name == candidateName(s)) return s;
  throw std::invalid_argument("unknown candidate shape '" + name + "'");
}

bool candidateFeasible(CandidateShape shape, int n, const Ratio& ratio) {
  if (n <= 0 || !ratio.valid()) return false;
  const Counts e = countsFor(n, ratio);
  if (e.eR <= 0 || e.eS <= 0) return false;

  switch (shape) {
    case CandidateShape::kSquareCorner: {
      const int aR = squareSide(e.eR);
      const int aS = squareSide(e.eS);
      const auto hR = ceilDiv(e.eR, aR);
      const auto hS = ceilDiv(e.eS, aS);
      // Thm 9.1 at integer granularity: disjoint columns and rows.
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

PartitionDescriptor candidateDescriptor(CandidateShape shape, int n,
                                        const Ratio& ratio) {
  if (!candidateFeasible(shape, n, ratio))
    throw std::invalid_argument(std::string(candidateName(shape)) +
                                " infeasible for n=" + std::to_string(n) +
                                " ratio " + ratio.str());
  const Counts e = countsFor(n, ratio);
  PartitionDescriptor q(n);

  switch (shape) {
    case CandidateShape::kSquareCorner: {
      // R square in the top-left corner, S square in the bottom-right:
      // no shared rows or columns (Fig. 11 left).
      const int aR = squareSide(e.eR);
      const int aS = squareSide(e.eS);
      fillRowsFirst(q, Proc::R, 0, aR, 0, +1, e.eR);
      fillRowsFirst(q, Proc::S, n - aS, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kRectangleCorner: {
      // Two non-square rectangles in opposite corners whose widths split the
      // full edge (Fig. 11 right); rows may interleave, columns are disjoint.
      const CornerWidths w = rectangleCornerWidths(n, e);
      fillRowsFirst(q, Proc::R, 0, w.wR, 0, +1, e.eR);
      fillRowsFirst(q, Proc::S, n - w.wS, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kSquareRectangle: {
      // R a full-height strip on the left, S a square in the bottom-right.
      // The strip's partial column fills bottom-up so its P-slack stays in
      // rows that already carry P.
      const int aS = squareSide(e.eS);
      fillColsFirst(q, Proc::R, 0, n, 0, +1, e.eR, /*fromBottom=*/true);
      fillRowsFirst(q, Proc::S, n - aS, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kBlockRectangle: {
      // Full-width bottom strip shared by R (left) and S (right) — the
      // canonical Type 4 with (near-)equal heights. Each side is an
      // independent bottom-aligned band; slack stays in each band's own
      // partial top row, so measured VoC tracks the closed form to O(1/n).
      const int cb = proportionalBoundary(n, e.eR, e.eS);
      fillRowsFirst(q, Proc::R, 0, cb, n - 1, -1, e.eR);
      fillRowsFirst(q, Proc::S, cb, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kLRectangle: {
      // R a full-height strip on the left (partial column bottom-up, slack
      // against P's rows), S spanning the remaining width at the bottom;
      // P keeps the L-shaped top-right remainder.
      const auto wR = static_cast<int>(ceilDiv(e.eR, n));
      fillColsFirst(q, Proc::R, 0, n, 0, +1, e.eR, /*fromBottom=*/true);
      fillRowsFirst(q, Proc::S, wR, n, n - 1, -1, e.eS);
      break;
    }
    case CandidateShape::kTraditionalRectangle: {
      // One (near-)uniform-width column strip on the right holding R above
      // S — the classical all-rectangles partition. Transpose of the Block
      // construction: a row boundary splits the matrix; each side is an
      // independent right-aligned band whose slack stays in its own partial
      // leftmost column.
      const int rb = proportionalBoundary(n, e.eR, e.eS);
      fillColsFirst(q, Proc::R, 0, rb, n - 1, -1, e.eR);
      fillColsFirst(q, Proc::S, rb, n, n - 1, -1, e.eS);
      break;
    }
  }
  return q;
}

Partition makeCandidate(CandidateShape shape, int n, const Ratio& ratio) {
  return candidateDescriptor(shape, n, ratio).toPartition();
}

}  // namespace pushpart
