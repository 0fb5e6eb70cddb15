// Run-length partition state with incremental VoC — the fast engine.
//
// The element-exact Partition (src/grid) stores one owner byte per cell, so
// every push legality scan walks O(N) cells and a failed attemptType pass
// costs O(N²). But the states the DFA actually spends its time in are
// (nearly) condensed: each row and column holds a handful of maximal
// same-owner *runs* (three solid regions ≈ ≤3 runs per line). This class
// stores exactly those runs, for every physical row AND every physical
// column — both orientations are needed because the four push directions map
// logical rows onto physical rows (Down/Up) or physical columns
// (Right/Left).
//
// A run is {end, owner}: the exclusive end index, with the begin implicit
// from the predecessor (or 0). Runs are maximal (adjacent owners differ) and
// tile [0, N). A single-cell reassignment touches only the runs it splits or
// merges — O(runs-in-line) — and updates the same incremental counter set
// the grid maintains (per-line per-processor counts, totals, used lines,
// distinct-owner counts c_i/c_j and their sums), so VoC stays an O(1) query
// and rowHas/colHas stay O(1) lookups.
//
// The push engine (push/engine.hpp) detects this class through the
// HasOwnerRuns concept and scans destinations run-by-run instead of
// cell-by-cell, which is where the order-of-magnitude win on condensed
// states comes from (bench/micro_push measures it). The grid remains the
// reference implementation: the counter maintenance here is written
// independently, and src/verify locksteps the two engines move-for-move.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/partition.hpp"
#include "grid/proc.hpp"
#include "grid/rect.hpp"

namespace pushpart {

class RlePartition : public ProcOwners {
 public:
  /// One maximal same-owner segment of a line: covers [previous run's end,
  /// end). The first run of a line begins at 0.
  struct Run {
    std::int32_t end;
    Proc owner;
    bool operator==(const Run&) const = default;
  };

  /// N×N state with every cell assigned to `fill` (one run per line).
  explicit RlePartition(int n, Proc fill = Proc::P);

  /// Exact conversion from the element grid (O(N²), used at engine
  /// boundaries and in the differential tests).
  explicit RlePartition(const Partition& q);

  /// Materialises the element grid (O(N²)); the inverse of the converting
  /// constructor.
  Partition toPartition() const;

  int n() const { return n_; }
  std::int64_t cellCount() const {
    return static_cast<std::int64_t>(n_) * n_;
  }

  /// Owner of cell (i, j). O(log runs-in-row).
  Proc at(int i, int j) const;

  /// Reassigns cell (i, j) to processor `p`, splitting/merging the affected
  /// row and column runs and updating all counters. O(runs-in-line).
  void set(int i, int j, Proc p);

  /// Swaps the owners of two cells (no-op if they already match).
  void swapCells(int i1, int j1, int i2, int j2);

  // --- Run queries --------------------------------------------------------

  /// The run of row i containing column j (end is the exclusive column
  /// index). Detected by the push engine's HasOwnerRuns concept.
  Run rowRunAt(int i, int j) const;
  /// The run of column j containing row i (end is the exclusive row index).
  Run colRunAt(int j, int i) const;

  std::span<const Run> rowRuns(int i) const {
    return rowRuns_[static_cast<std::size_t>(i)];
  }
  std::span<const Run> colRuns(int j) const {
    return colRuns_[static_cast<std::size_t>(j)];
  }
  int rowRunCount(int i) const {
    return static_cast<int>(rowRuns_[static_cast<std::size_t>(i)].size());
  }
  int colRunCount(int j) const {
    return static_cast<int>(colRuns_[static_cast<std::size_t>(j)].size());
  }
  /// Total runs across all rows (the row representation only; the column
  /// representation mirrors it). The compression ratio N²/totalRuns is the
  /// quantity the fast engine exploits.
  std::int64_t totalRuns() const;

  // --- Occupancy queries (all O(1), mirroring Partition) ------------------

  int rowCount(Proc p, int i) const {
    return rowCnt_[procSlot(p)][static_cast<std::size_t>(i)];
  }
  int colCount(Proc p, int j) const {
    return colCnt_[procSlot(p)][static_cast<std::size_t>(j)];
  }
  bool rowHas(Proc p, int i) const { return rowCount(p, i) > 0; }
  bool colHas(Proc p, int j) const { return colCount(p, j) > 0; }

  std::int64_t count(Proc p) const { return total_[procSlot(p)]; }

  int rowsUsed(Proc p) const { return rowsUsed_[procSlot(p)]; }
  int colsUsed(Proc p) const { return colsUsed_[procSlot(p)]; }

  int procsInRow(int i) const { return ci_[static_cast<std::size_t>(i)]; }
  int procsInCol(int j) const { return cj_[static_cast<std::size_t>(j)]; }

  /// Volume of Communication, Eq. 1 — O(1) from the running c_i/c_j sums.
  std::int64_t volumeOfCommunication() const {
    return static_cast<std::int64_t>(n_) * (ciSum_ - n_) +
           static_cast<std::int64_t>(n_) * (cjSum_ - n_);
  }

  /// Tightest axis-aligned rectangle around p's elements; empty when p owns
  /// nothing. O(1) when cached, O(N) to recompute after a mutation.
  const Rect& enclosingRect(Proc p) const;

  // --- Identity -----------------------------------------------------------

  /// 64-bit FNV-1a over the row runs ((end, owner) pairs). NOT comparable
  /// with Partition::hash() — but cycle detection only needs "same state,
  /// same hash" within one engine, and a state repeats on this engine iff
  /// its element image repeats on the grid.
  std::uint64_t hash() const;

  /// Structural equality (same n, same owners — runs are canonical, so run
  /// equality is owner equality).
  bool operator==(const RlePartition& o) const {
    return n_ == o.n_ && rowRuns_ == o.rowRuns_;
  }

  /// True when every cell owner matches the element grid's.
  bool sameOwners(const Partition& q) const;

  /// Full O(N²) revalidation: run normalisation (coverage, strictly
  /// increasing ends, maximality), row/column representation agreement, and
  /// every incremental counter. Throws CheckError on any mismatch.
  void validateCounters() const;

 private:
  void lineSet(std::vector<Run>& runs, int pos, Proc p);
  void recomputeRect(Proc p) const;
  void rebuildFrom(const Partition& q);

  int n_;
  std::vector<std::vector<Run>> rowRuns_;
  std::vector<std::vector<Run>> colRuns_;

  // Incremental counters, maintained independently of (but shaped like) the
  // grid's: the differential suite cross-checks the two maintenance paths.
  std::array<std::vector<std::int32_t>, kNumProcs> rowCnt_;
  std::array<std::vector<std::int32_t>, kNumProcs> colCnt_;
  std::array<std::int64_t, kNumProcs> total_{};
  std::array<std::int32_t, kNumProcs> rowsUsed_{};
  std::array<std::int32_t, kNumProcs> colsUsed_{};

  std::vector<std::int8_t> ci_, cj_;
  std::int64_t ciSum_ = 0;
  std::int64_t cjSum_ = 0;

  mutable std::array<Rect, kNumProcs> rect_{};
  mutable std::array<bool, kNumProcs> rectDirty_{};
};

}  // namespace pushpart
