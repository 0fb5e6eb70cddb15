// The data-partition grid q : [0,N)² → {R, S, P} with incremental metrics.
//
// This is the central data structure of the library. It stores the paper's
// partition function q(i,j) (§IV) as a dense N×N cell grid and maintains,
// incrementally under single-cell reassignment:
//
//   * per-processor per-row / per-column element counts,
//   * per-processor totals and used-row / used-column counts (i_X, j_X of
//     Eq. 6),
//   * per-row / per-column distinct-owner counts c_i, c_j and their sums, so
//     the Volume of Communication (Eq. 1) is an O(1) query,
//   * lazily-recomputed enclosing rectangles.
//
// Every mutation is O(1); a full VoC recompute would be O(N·kNumProcs). The
// DFA search performs millions of cell moves per run, which is why the
// counters are incremental (see bench/micro_push for the measured gap).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grid/proc.hpp"
#include "grid/rect.hpp"

namespace pushpart {

class Partition : public ProcOwners {
 public:
  /// N×N grid with every cell assigned to `fill` (default: the fastest
  /// processor P, matching the paper's q0 initialisation, §VI-A2).
  explicit Partition(int n, Proc fill = Proc::P);

  int n() const { return n_; }
  std::int64_t cellCount() const {
    return static_cast<std::int64_t>(n_) * n_;
  }

  /// Owner of cell (i, j).
  Proc at(int i, int j) const { return cells_[index(i, j)]; }

  /// Reassigns cell (i, j) to processor `p`, updating all counters.
  void set(int i, int j, Proc p);

  /// Swaps the owners of two cells (no-op if they already match).
  void swapCells(int i1, int j1, int i2, int j2);

  // --- Occupancy queries (all O(1)) -------------------------------------

  /// # elements of processor p in row i.
  int rowCount(Proc p, int i) const {
    return rowCnt_[procSlot(p)][static_cast<std::size_t>(i)];
  }
  /// # elements of processor p in column j.
  int colCount(Proc p, int j) const {
    return colCnt_[procSlot(p)][static_cast<std::size_t>(j)];
  }
  bool rowHas(Proc p, int i) const { return rowCount(p, i) > 0; }
  bool colHas(Proc p, int j) const { return colCount(p, j) > 0; }

  /// Total elements assigned to p (∈X in the paper).
  std::int64_t count(Proc p) const { return total_[procSlot(p)]; }

  /// i_X — number of rows containing at least one element of p (Eq. 6).
  int rowsUsed(Proc p) const { return rowsUsed_[procSlot(p)]; }
  /// j_X — number of columns containing at least one element of p (Eq. 6).
  int colsUsed(Proc p) const { return colsUsed_[procSlot(p)]; }

  /// c_i — number of distinct processors owning elements in row i (Eq. 1).
  int procsInRow(int i) const { return ci_[static_cast<std::size_t>(i)]; }
  /// c_j — number of distinct processors owning elements in column j.
  int procsInCol(int j) const { return cj_[static_cast<std::size_t>(j)]; }

  /// Volume of Communication, Eq. 1:
  ///   VoC = Σ_i N(c_i − 1) + Σ_j N(c_j − 1).
  /// O(1): maintained from the running sums of c_i and c_j.
  std::int64_t volumeOfCommunication() const;

  /// Tightest axis-aligned rectangle around p's elements; empty when p owns
  /// nothing. O(1) when cached, O(N) to recompute after a mutation.
  const Rect& enclosingRect(Proc p) const;

  // --- Identity ----------------------------------------------------------

  /// 64-bit FNV-1a over the cell grid; used for cycle detection in the DFA.
  std::uint64_t hash() const;

  bool operator==(const Partition& o) const {
    return n_ == o.n_ && cells_ == o.cells_;
  }

  /// Full O(N²) recomputation of every counter, for validation in tests.
  /// Throws CheckError if any incremental counter disagrees.
  void validateCounters() const;

 private:
  // PartitionDescriptor::toPartition() writes cells and counters in bulk
  // from the descriptor's rectangles and line counts instead of recounting
  // them cell by cell through set().
  friend class PartitionDescriptor;

  std::size_t index(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(j);
  }
  void recomputeRect(Proc p) const;

  int n_;
  std::vector<Proc> cells_;

  // Incremental counters. rowCnt_[x][i] = #elements of processor x in row i.
  std::array<std::vector<std::int32_t>, kNumProcs> rowCnt_;
  std::array<std::vector<std::int32_t>, kNumProcs> colCnt_;
  std::array<std::int64_t, kNumProcs> total_{};
  std::array<std::int32_t, kNumProcs> rowsUsed_{};
  std::array<std::int32_t, kNumProcs> colsUsed_{};

  // c_i / c_j per line plus running sums for O(1) VoC.
  std::vector<std::int8_t> ci_, cj_;
  std::int64_t ciSum_ = 0;
  std::int64_t cjSum_ = 0;

  // Lazily maintained enclosing rectangles.
  mutable std::array<Rect, kNumProcs> rect_{};
  mutable std::array<bool, kNumProcs> rectDirty_{};
};

}  // namespace pushpart
