// Analytic partition descriptors: a partition given as a few owner
// rectangles on a P-filled N×N grid.
//
// Every structured candidate the system ranks (the paper's six §IX shapes,
// the layered and the hierarchical families) is built by carving exact
// element counts out of P along some cell order: full lines plus one partial
// line. A PartitionDescriptor records each such carve as at most a few
// disjoint rectangles instead of painting N² cells, and answers everything
// the performance models read from it in O(N + #rects):
//
//   * lineCounts() — a LineCounts value exposing the same O(1) counter API
//     as Partition (rowCount, colCount, count, rowHas/colHas,
//     procsInRow/procsInCol, volumeOfCommunication), so evalModel,
//     pairVolumes and overlapElements run one templated body on either;
//   * bandRuns() — the grid's canonical form (maximal bands of rows with
//     identical owner-run lists), equal for equal grids however their
//     rectangles were cut; the family registry deduplicates on it;
//   * toPartition() — the element-exact grid, built only where a caller
//     needs cells (the executor, serialization, verification).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/partition.hpp"
#include "grid/proc.hpp"
#include "grid/rect.hpp"

namespace pushpart {

/// One rectangle of a descriptor and the processor that owns it.
struct OwnedRect {
  Proc owner = Proc::P;
  Rect rect;
};

/// `lines` consecutive lines (rows when `rows`, else columns) starting at
/// line `first` and advancing by `step` (+1 or −1), each visiting the cross
/// interval [lo, hi) — in ascending order, or descending when `reverse`.
struct LineRun {
  bool rows = true;
  int first = 0;
  int step = 1;
  int lines = 0;
  int lo = 0;
  int hi = 0;
  bool reverse = false;

  std::int64_t cells() const {
    return hi > lo && lines > 0
               ? static_cast<std::int64_t>(lines) * (hi - lo)
               : 0;
  }
};

/// A cell order: the concatenation of its runs' cells.
using CellOrder = std::vector<LineRun>;

/// Row-major (or column-major) order over the box, ascending both ways.
CellOrder boxOrder(const Rect& box, bool rowMajor);

/// Row- or column-major order over the n×n grid minus `hole`. The hole must
/// touch a grid edge across the scan direction (each line keeps one
/// contiguous span), as every corner or edge-strip region does.
CellOrder boxComplementOrder(int n, const Rect& hole, bool rowMajor);

class LineCounts;

class PartitionDescriptor {
 public:
  /// The n×n grid with every cell owned by P.
  explicit PartitionDescriptor(int n);

  int n() const { return n_; }
  const std::vector<OwnedRect>& rects() const { return rects_; }

  /// Gives x the cells [cursor, cursor + count) of `order` — the same cells
  /// a cell-by-cell carve visiting `order` would claim when every one of
  /// them is still P's. Each run the range touches becomes at most three
  /// rectangles (partial head line, full lines, partial tail line). Returns
  /// false, changing nothing, when the order has fewer cells than that.
  bool carve(Proc x, const CellOrder& order, std::int64_t cursor,
             std::int64_t count);

  /// Adds one owner rectangle; it must lie on the grid and be disjoint from
  /// every rectangle already present (checked).
  void add(Proc x, const Rect& r);

  /// The element-exact grid.
  Partition toPartition() const;

  /// Per-line owner counts, in O(n + #rects).
  LineCounts lineCounts() const;

  /// Canonical form of the grid: for each maximal band of consecutive rows
  /// with identical owner-run lists, top to bottom, the words
  /// (band height, run count, owner₀, length₀, owner₁, length₁, ...), runs
  /// left to right with adjacent equal owners merged. Two descriptors give
  /// equal forms exactly when their grids are equal.
  std::vector<std::int32_t> bandRuns() const;

 private:
  int n_;
  std::vector<OwnedRect> rects_;
};

/// FNV-1a over a bandRuns() form — the registry's dedup hash.
struct BandRunsHash {
  std::size_t operator()(const std::vector<std::int32_t>& form) const;
};

/// Per-line owner counts of a descriptor's grid, with Partition's O(1)
/// counter API (the subset the models consume).
class LineCounts {
 public:
  int n() const { return n_; }

  int rowCount(Proc p, int i) const { return cnt_[slot(p, 0, i)]; }
  int colCount(Proc p, int j) const { return cnt_[slot(p, 1, j)]; }
  bool rowHas(Proc p, int i) const { return rowCount(p, i) > 0; }
  bool colHas(Proc p, int j) const { return colCount(p, j) > 0; }

  std::int64_t count(Proc p) const { return total_[procSlot(p)]; }

  int procsInRow(int i) const {
    return rowHas(Proc::R, i) + rowHas(Proc::S, i) + rowHas(Proc::P, i);
  }
  int procsInCol(int j) const {
    return colHas(Proc::R, j) + colHas(Proc::S, j) + colHas(Proc::P, j);
  }

  /// Eq. 1, as Partition::volumeOfCommunication.
  std::int64_t volumeOfCommunication() const;

 private:
  friend class PartitionDescriptor;

  /// Layout: [axis][proc][line], axis 0 = rows, 1 = columns.
  std::size_t slot(Proc p, int axis, int line) const {
    return (static_cast<std::size_t>(axis) * kNumProcs + procSlot(p)) *
               static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(line);
  }

  int n_ = 0;
  std::vector<std::int32_t> cnt_;
  std::array<std::int64_t, kNumProcs> total_{};
  std::int64_t ciSum_ = 0;
  std::int64_t cjSum_ = 0;
};

}  // namespace pushpart
