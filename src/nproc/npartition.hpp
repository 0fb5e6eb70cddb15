// K-processor generalization of the partition grid (paper §XI).
//
// The paper's conclusion positions the three-processor study as "an
// excellent starting point for four or more processors" and notes that both
// the analytical method and the search program extend to any processor
// count. This module is that extension: NPartition stores q : [0,N)² →
// {0..k-1} for arbitrary k ≥ 2 with the same incremental metrics as the
// three-processor Partition (per-line occupancy, O(1) Volume of
// Communication, enclosing rectangles). Processor indices are plain ints;
// by convention the *fastest* processor has index 0 and is never pushed
// (mirroring P in the three-processor API). The shared Push engine
// (push/engine.hpp) runs on this state directly.
#pragma once

#include <cstdint>
#include <ranges>
#include <vector>

#include "grid/rect.hpp"

namespace pushpart {

/// Processor index in a k-processor partition; 0 is the fastest.
using NProcId = int;

class NPartition {
 public:
  /// n×n grid over `procs` processors, all cells assigned to processor 0.
  NPartition(int n, int procs);

  int n() const { return n_; }

  // --- Owner set (read by the engine templates in push/engine.hpp) -------

  int procs() const { return procs_; }
  static constexpr NProcId fastest() { return 0; }
  /// Indices 1..k-1 — every processor the engine may push or compact.
  auto slowOwners() const { return std::views::iota(NProcId{1}, procs_); }

  std::int64_t cellCount() const {
    return static_cast<std::int64_t>(n_) * n_;
  }

  NProcId at(int i, int j) const {
    return cells_[index(i, j)];
  }

  /// Reassigns cell (i, j), updating all counters. p must be in [0, procs).
  void set(int i, int j, NProcId p);

  // --- Occupancy queries (all O(1)) -------------------------------------

  int rowCount(NProcId p, int i) const {
    return rowCnt_[slot(p)][static_cast<std::size_t>(i)];
  }
  int colCount(NProcId p, int j) const {
    return colCnt_[slot(p)][static_cast<std::size_t>(j)];
  }
  bool rowHas(NProcId p, int i) const { return rowCount(p, i) > 0; }
  bool colHas(NProcId p, int j) const { return colCount(p, j) > 0; }

  std::int64_t count(NProcId p) const { return total_[slot(p)]; }
  int rowsUsed(NProcId p) const { return rowsUsed_[slot(p)]; }
  int colsUsed(NProcId p) const { return colsUsed_[slot(p)]; }

  /// c_i / c_j — number of distinct owners in a line (Eq. 1 generalized).
  int procsInRow(int i) const { return ci_[static_cast<std::size_t>(i)]; }
  int procsInCol(int j) const { return cj_[static_cast<std::size_t>(j)]; }

  /// VoC = Σ_i N(c_i − 1) + Σ_j N(c_j − 1), O(1).
  std::int64_t volumeOfCommunication() const;

  /// Tightest box around p's cells (empty when p owns nothing). O(N).
  Rect enclosingRect(NProcId p) const;

  /// FNV-1a over cells (cycle detection).
  std::uint64_t hash() const;

  bool operator==(const NPartition& o) const {
    return n_ == o.n_ && procs_ == o.procs_ && cells_ == o.cells_;
  }

  /// O(N²·k) recomputation of every counter; throws CheckError on mismatch.
  void validateCounters() const;

 private:
  std::size_t index(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(j);
  }
  static std::size_t slot(NProcId p) { return static_cast<std::size_t>(p); }

  int n_;
  int procs_;
  std::vector<NProcId> cells_;
  std::vector<std::vector<std::int32_t>> rowCnt_, colCnt_;  // [proc][line]
  std::vector<std::int64_t> total_;
  std::vector<std::int32_t> rowsUsed_, colsUsed_;
  std::vector<std::int16_t> ci_, cj_;
  std::int64_t ciSum_ = 0;
  std::int64_t cjSum_ = 0;
};

}  // namespace pushpart
