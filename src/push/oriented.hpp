// Direction-canonicalising view over a partition state.
//
// The Push algorithm is written once for the canonical Down direction:
// "clean the lowest-index logical row of the active processor's enclosing
// rectangle, relocating elements into higher-index logical rows". This view
// maps logical (row, col) coordinates onto the physical grid so that the same
// code performs Up, Left and Right pushes:
//
//   Down : (r, c) -> (r, c)            logical rows are physical rows
//   Up   : (r, c) -> (n-1-r, c)        rows flipped
//   Right: (r, c) -> (c, r)            logical rows are physical columns
//   Left : (r, c) -> (c, n-1-r)        columns flipped and transposed
//
// Mutations are funnelled through set(), which appends to an undo log so a
// failed push attempt can be rolled back exactly.
//
// The view is a template over the state type Q so the same engine drives the
// element-exact Partition, the run-length RlePartition and the k-processor
// NPartition; Q must provide at/set/rowHas/colHas/enclosingRect/n. The owner
// type is whatever Q::at returns (Proc, or a processor index). States that
// additionally expose owner runs (rowRunAt/colRunAt) get a run-granular
// rowRun() accessor, which the push engine uses to skip whole runs per
// legality decision.
#pragma once

#include <concepts>
#include <type_traits>
#include <utility>
#include <vector>

#include "grid/partition.hpp"
#include "push/direction.hpp"

namespace pushpart {

/// Owner type of an engine state: Proc for the three-processor states,
/// NProcId for NPartition.
template <typename Q>
using OwnerOf =
    std::remove_cvref_t<decltype(std::declval<const Q&>().at(0, 0))>;

/// One grid mutation, recorded for rollback (physical coordinates).
template <typename Owner>
struct CellUndo {
  int i;
  int j;
  Owner previous;
};

/// A maximal same-owner segment of a logical row, ending (exclusive) at
/// logical column `end`.
template <typename Owner>
struct OwnerRun {
  Owner owner;
  int end;
};

/// Detects states that store owner runs per physical row and column.
/// rowRunAt(i, j) must return the run of row i containing column j;
/// colRunAt(j, i) the run of column j containing row i — both as
/// {owner, exclusive physical end index}.
template <typename Q>
concept HasOwnerRuns = requires(const Q& q, int i, int j) {
  { q.rowRunAt(i, j).owner } -> std::convertible_to<OwnerOf<Q>>;
  { q.rowRunAt(i, j).end } -> std::convertible_to<int>;
  { q.colRunAt(j, i).owner } -> std::convertible_to<OwnerOf<Q>>;
  { q.colRunAt(j, i).end } -> std::convertible_to<int>;
};

template <typename Q>
class OrientedView {
 public:
  using Owner = OwnerOf<Q>;

  OrientedView(Q& q, Direction dir) : q_(q), dir_(dir) {}

  int n() const { return q_.n(); }

  Owner at(int r, int c) const {
    const auto [i, j] = toPhysical(r, c);
    return q_.at(i, j);
  }

  /// Reassigns a cell and records the previous owner in `undo`.
  void set(int r, int c, Owner p, std::vector<CellUndo<Owner>>& undo) {
    const auto [i, j] = toPhysical(r, c);
    const Owner prev = q_.at(i, j);
    if (prev == p) return;
    undo.push_back({i, j, prev});
    q_.set(i, j, p);
  }

  /// Does logical row r contain any element of p?
  bool rowHas(Owner p, int r) const {
    switch (dir_) {
      case Direction::Down: return q_.rowHas(p, r);
      case Direction::Up: return q_.rowHas(p, n() - 1 - r);
      case Direction::Right: return q_.colHas(p, r);
      case Direction::Left: return q_.colHas(p, n() - 1 - r);
    }
    return false;
  }

  /// Does logical column c contain any element of p?
  bool colHas(Owner p, int c) const {
    switch (dir_) {
      case Direction::Down:
      case Direction::Up: return q_.colHas(p, c);
      case Direction::Right:
      case Direction::Left: return q_.rowHas(p, c);
    }
    return false;
  }

  /// p's enclosing rectangle in logical coordinates.
  Rect rect(Owner p) const {
    const Rect r = q_.enclosingRect(p);
    if (r.isEmpty()) return Rect::empty();
    switch (dir_) {
      case Direction::Down:
        return r;
      case Direction::Up:
        return Rect{n() - r.rowEnd, n() - r.rowBegin, r.colBegin, r.colEnd};
      case Direction::Right:
        return Rect{r.colBegin, r.colEnd, r.rowBegin, r.rowEnd};
      case Direction::Left:
        return Rect{n() - r.colEnd, n() - r.colBegin, r.rowBegin, r.rowEnd};
    }
    return r;
  }

  /// The maximal same-owner run of logical row r containing logical column
  /// c, with its exclusive logical end column. Available only on run-length
  /// states. In all four orientations a logical row maps onto one physical
  /// row or column traversed in *increasing* physical index, so the physical
  /// run end is already the logical one.
  OwnerRun<Owner> rowRun(int r, int c) const
    requires HasOwnerRuns<Q>
  {
    switch (dir_) {
      case Direction::Down: {
        const auto run = q_.rowRunAt(r, c);
        return {run.owner, run.end};
      }
      case Direction::Up: {
        const auto run = q_.rowRunAt(n() - 1 - r, c);
        return {run.owner, run.end};
      }
      case Direction::Right: {
        const auto run = q_.colRunAt(r, c);
        return {run.owner, run.end};
      }
      case Direction::Left: {
        const auto run = q_.colRunAt(n() - 1 - r, c);
        return {run.owner, run.end};
      }
    }
    return {q_.at(r, c), c + 1};
  }

  Direction direction() const { return dir_; }
  const Q& partition() const { return q_; }

 private:
  struct Phys {
    int i;
    int j;
  };
  Phys toPhysical(int r, int c) const {
    switch (dir_) {
      case Direction::Down: return {r, c};
      case Direction::Up: return {n() - 1 - r, c};
      case Direction::Right: return {c, r};
      case Direction::Left: return {c, n() - 1 - r};
    }
    return {r, c};
  }

  Q& q_;
  Direction dir_;
};

/// The element-exact view the original engine was written against.
using OrientedGrid = OrientedView<Partition>;

/// Reverts mutations recorded by OrientedView::set, newest first.
template <typename Q>
inline void rollback(Q& q, const std::vector<CellUndo<OwnerOf<Q>>>& undo) {
  for (auto it = undo.rbegin(); it != undo.rend(); ++it)
    q.set(it->i, it->j, it->previous);
}

}  // namespace pushpart
