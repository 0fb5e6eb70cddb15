// State-generic Push + beautify engine.
//
// The legality ladder, the edge-clean scan, the transactional guards and the
// beautify/compaction passes are written once as templates over the state
// type Q and its owner type OwnerOf<Q>. Three states instantiate them:
//
//   * Partition (src/grid)    — the element-exact three-processor reference,
//   * RlePartition (src/rle)  — owner runs with incremental VoC,
//   * NPartition (src/nproc)  — k processors, owners are indices 0..k-1.
//
// All expose the same occupancy/counter API plus their owner set: procs()
// (how many owners), fastest() (the owner never pushed: P, or index 0) and
// slowOwners() (the owners the engine moves, in beautify order). The
// engine's *decisions* (which destination each edge element takes, which
// type fires, the exact cell exchanges) are therefore identical by
// construction; the differential suites in src/verify (grid vs RLE) and
// tests/nproc (NPartition at k = 3 vs grid) lockstep the instantiations to
// enforce that. Per-owner snapshots are fixed arrays for the
// three-processor states, so their push path allocates no per-owner
// storage. For states
// that expose owner runs (HasOwnerRuns), the destination scan walks runs
// instead of cells: per run the owner-side predicates are constant, so a
// whole run is accepted or skipped with O(1) work, and only the
// active-column requirement (which varies along the run) is scanned — and
// that scan is exactly the cell walk the reference performs, so the chosen
// destination cell is provably the same.
//
// The non-template entry points in push.hpp / beautify.hpp remain the public
// API for grid callers; this header is for engine instantiation on other
// state types.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "grid/metrics.hpp"
#include "push/beautify.hpp"
#include "push/direction.hpp"
#include "push/oriented.hpp"
#include "push/push.hpp"
#include "support/check.hpp"

namespace pushpart {

namespace engine_detail {

/// Index of an owner into per-owner snapshots.
template <typename Owner>
constexpr std::size_t ownerSlot(Owner x) {
  return static_cast<std::size_t>(x);
}

/// Per-owner snapshot storage, value-initialised: a fixed array for the
/// three-processor states (no allocation on the push path), a vector sized
/// to procs() for k-processor states.
template <typename T, typename Q>
auto perOwner(const Q& q) {
  if constexpr (std::same_as<OwnerOf<Q>, Proc>) {
    return std::array<T, kNumProcs>{};
  } else {
    return std::vector<T>(static_cast<std::size_t>(q.procs()));
  }
}

/// Printable owner for check messages: 'R' for Proc, the index otherwise.
template <typename Owner>
auto ownerLabel(Owner x) {
  if constexpr (std::same_as<Owner, Proc>) {
    return procName(x);
  } else {
    return x;
  }
}

/// How strongly a predicate binds: both the row and the column, either one,
/// or not at all.
enum class Req { kAnd, kOr, kNone };

/// Legality profile of one push type (see push.hpp for the ladder).
struct TypeRule {
  /// Requirement that the *destination* cell lies in a row/column already
  /// containing the active processor (controls how many rows/columns the
  /// active processor may dirty).
  Req activeDest;
  /// Requirement that the *displaced owner* already has elements in the
  /// cleaned row and the vacated column (controls how much the owner
  /// dirties row k / column c when it takes over the vacated cell).
  Req ownerPresence;
  /// Types One–Four must strictly lower VoC; Five–Six may keep it equal.
  bool strictImprovement;
};

constexpr TypeRule ruleFor(PushType t) {
  switch (t) {
    case PushType::kType1: return {Req::kAnd, Req::kAnd, true};
    case PushType::kType2: return {Req::kAnd, Req::kOr, true};
    case PushType::kType3: return {Req::kOr, Req::kAnd, true};
    case PushType::kType4: return {Req::kOr, Req::kNone, true};
    case PushType::kType5: return {Req::kNone, Req::kAnd, false};
    case PushType::kType6: return {Req::kNone, Req::kNone, false};
  }
  return {Req::kAnd, Req::kAnd, true};
}

inline bool meets(Req req, bool inRow, bool inCol) {
  switch (req) {
    case Req::kAnd: return inRow && inCol;
    case Req::kOr: return inRow || inCol;
    case Req::kNone: return true;
  }
  return false;
}

/// Attempts the edge-clean under one type's predicates, appending all
/// mutations to `log`. Returns the number of elements moved, or std::nullopt
/// when some edge element found no legal destination (caller must roll back
/// `log`).
template <typename Q, typename RectSnapshot>
std::optional<int> attemptType(OrientedView<Q>& view, OwnerOf<Q> active,
                               const TypeRule& rule,
                               const RectSnapshot& rectBefore,
                               std::vector<CellUndo<OwnerOf<Q>>>& log) {
  using Owner = OwnerOf<Q>;
  const Owner fastest = view.partition().fastest();
  const Rect r = view.rect(active);
  // The active processor needs interior rows to move into; a single-row
  // occupancy cannot be pushed without enlarging its enclosing rectangle.
  if (r.isEmpty() || r.height() < 2) return std::nullopt;
  const int k = r.rowBegin;

  // Columns of the active processor's elements on the edge row, gathered
  // before any mutation. k is the rectangle edge, so this is non-empty.
  std::vector<int> sources;
  if constexpr (HasOwnerRuns<Q>) {
    int c = r.colBegin;
    while (c < r.colEnd) {
      const auto run = view.rowRun(k, c);
      const int end = run.end < r.colEnd ? run.end : r.colEnd;
      if (run.owner == active)
        for (int x = c; x < end; ++x) sources.push_back(x);
      c = end;
    }
  } else {
    for (int c = r.colBegin; c < r.colEnd; ++c)
      if (view.at(k, c) == active) sources.push_back(c);
  }
  if (sources.empty()) return std::nullopt;

  // Monotone destination cursor over the rectangle interior, as in the
  // paper's findTypeOne pseudocode: the scan resumes where the previous
  // element's search stopped. Unlike the paper's top-down scan we walk the
  // rows *far-edge-first* (bottom-up for a Down push): relocated elements
  // fill the holes farthest from the advancing clean edge, so leftover
  // raggedness collects in the edge line and the condensed region stays
  // asymptotically rectangular instead of fossilising interior holes it can
  // no longer clean.
  int g = r.rowEnd - 1;
  int h = r.colBegin;

  for (int c : sources) {
    bool found = false;
    while (g > k && !found) {
      if constexpr (HasOwnerRuns<Q>) {
        // Run-granular scan. No mutation happens between loop entry and the
        // accept below, so rowHas(active, g) is constant across this row
        // visit — exactly as in the reference's cell walk, where it is
        // re-evaluated per cell but cannot change.
        const bool rowActive = view.rowHas(active, g);
        while (h < r.colEnd) {
          const auto run = view.rowRun(g, h);
          const int end = run.end < r.colEnd ? run.end : r.colEnd;
          const Owner owner = run.owner;
          // Predicates constant over the run (pure, so evaluation order
          // relative to the reference's per-cell conjunction is
          // outcome-neutral): own cells are never destinations, the
          // displaced owner's presence in row k / column c does not depend
          // on h, and neither does rectangle containment of (k, c).
          if (owner == active ||
              !meets(rule.ownerPresence, view.rowHas(owner, k),
                     view.colHas(owner, c)) ||
              !(owner == fastest ||
                rectBefore[ownerSlot(owner)].contains(k, c))) {
            h = end;
            continue;
          }
          // Only the activeDest requirement varies along the run (through
          // colHas(active, h)).
          if (rule.activeDest == Req::kAnd && !rowActive) {
            // rowActive false fails every h of this row under kAnd.
            h = end;
            continue;
          }
          if (rule.activeDest == Req::kAnd ||
              (rule.activeDest == Req::kOr && !rowActive)) {
            while (h < end && !view.colHas(active, h)) ++h;
            if (h >= end) continue;  // no qualifying column in this run
          }
          // Exchange: the owner inherits the vacated edge cell, the active
          // processor moves inward.
          view.set(k, c, owner, log);
          view.set(g, h, active, log);
          found = true;
          ++h;  // do not hand the same destination to the next element
          break;
        }
      } else {
        while (h < r.colEnd) {
          const Owner owner = view.at(g, h);
          if (owner != active &&
              meets(rule.activeDest, view.rowHas(active, g),
                    view.colHas(active, h)) &&
              meets(rule.ownerPresence, view.rowHas(owner, k),
                    view.colHas(owner, c)) &&
              // The owner takes over (k, c); keeping that inside its pre-push
              // enclosing rectangle guarantees no rectangle grows (§IV-A
              // precondition). Presence in row k and column c already implies
              // containment, so this only bites for the laxer owner rules.
              // The fastest processor P is exempt: its rectangle plays no role
              // in VoC or in future pushes, and holding it to the letter of
              // §IV-A creates artificial fixed points (a solid band with
              // ragged edges whose improving push would hand P a cell below
              // P's current box — see DESIGN.md deviation 6). The
              // transactional VoC guard in tryPushState subsumes the rule's
              // purpose.
              (owner == fastest ||
               rectBefore[ownerSlot(owner)].contains(k, c))) {
            view.set(k, c, owner, log);
            view.set(g, h, active, log);
            found = true;
            ++h;
            break;
          }
          ++h;
        }
      }
      if (!found) {
        h = r.colBegin;
        --g;
      }
    }
    if (!found) return std::nullopt;
  }
  return static_cast<int>(sources.size());
}

}  // namespace engine_detail

/// tryPush over any engine state (see push.hpp for the contract). `active`
/// must be a slow owner: not q.fastest(), and below q.procs().
template <typename Q>
BasicPushOutcome<OwnerOf<Q>> tryPushState(Q& q, OwnerOf<Q> active,
                                          Direction dir,
                                          const PushOptions& options = {}) {
  using engine_detail::ownerLabel;
  using engine_detail::ownerSlot;
  PUSHPART_CHECK_MSG(active != q.fastest(),
                     "the fastest processor " << ownerLabel(active)
                         << " is never the active processor");
  PUSHPART_CHECK_MSG(
      ownerSlot(active) < static_cast<std::size_t>(q.procs()),
      "active processor " << ownerLabel(active) << " out of range");
  BasicPushOutcome<OwnerOf<Q>> out;
  out.direction = dir;
  out.active = active;
  out.vocBefore = q.volumeOfCommunication();
  out.vocAfter = out.vocBefore;

  OrientedView<Q> view(q, dir);

  // Snapshot logical enclosing rectangles and counts for the transactional
  // guards.
  auto rectBefore = engine_detail::perOwner<Rect>(q);
  auto countBefore = engine_detail::perOwner<std::int64_t>(q);
  for (std::size_t s = 0; s < rectBefore.size(); ++s) {
    const auto x = static_cast<OwnerOf<Q>>(s);
    rectBefore[s] = view.rect(x);
    countBefore[s] = q.count(x);
  }

  for (PushType type :
       {PushType::kType1, PushType::kType2, PushType::kType3, PushType::kType4,
        PushType::kType5, PushType::kType6}) {
    const engine_detail::TypeRule rule = engine_detail::ruleFor(type);
    if (!options.allowEqualVoC && !rule.strictImprovement) break;

    std::vector<CellUndo<OwnerOf<Q>>> log;
    const auto moved =
        engine_detail::attemptType(view, active, rule, rectBefore, log);
    if (!moved) {
      rollback(q, log);
      continue;
    }

    // Transactional guards: the paper's guarantees, enforced exactly.
    const std::int64_t vocAfter = q.volumeOfCommunication();
    const bool vocOk = rule.strictImprovement ? (vocAfter < out.vocBefore)
                                              : (vocAfter <= out.vocBefore);
    if (!vocOk) {
      rollback(q, log);
      continue;
    }
    for (std::size_t s = 0; s < rectBefore.size(); ++s) {
      const auto x = static_cast<OwnerOf<Q>>(s);
      // P's rectangle is unconstrained (see the finder comment above).
      PUSHPART_CHECK_MSG(
          x == q.fastest() || rectBefore[s].contains(view.rect(x)),
          "push enlarged the enclosing rectangle of " << ownerLabel(x));
      PUSHPART_CHECK_MSG(q.count(x) == countBefore[s],
                         "push changed the element count of " << ownerLabel(x));
    }

    out.applied = true;
    out.type = type;
    out.vocAfter = vocAfter;
    out.elementsMoved = *moved;
    return out;
  }

  return out;
}

/// pushAvailable over any engine state (copies a scratch state and rolls
/// attempts on the copy).
template <typename Q>
bool pushAvailableState(const Q& q, OwnerOf<Q> active,
                        std::span<const Direction> dirs,
                        const PushOptions& options = {}) {
  Q scratch = q;
  for (Direction d : dirs) {
    if (tryPushState(scratch, active, d, options).applied) return true;
  }
  return false;
}

namespace engine_detail {

/// One attempted re-layout of x inside its enclosing rectangle, filling in
/// the order given by `rank` (a bijection from rect cells to 0..area-1; the
/// first count(x) ranks become x's). Commits only when the guard passes.
/// The right orientation depends on context — e.g. a full-matrix-width
/// region must keep every row occupied (a partial top row would newly dirty
/// that row with the displaced owner), so its partial line has to be a
/// column — hence the caller tries several orientations.
template <typename Q, typename RankFn>
bool tryCompactLayout(Q& q, OwnerOf<Q> x, const Rect& rect, RankFn rank) {
  using Owner = OwnerOf<Q>;
  const std::int64_t own = q.count(x);
  auto targetIsX = [&](int i, int j) { return rank(i, j) < own; };

  std::vector<std::pair<int, int>> gain, release;
  for (int i = rect.rowBegin; i < rect.rowEnd; ++i)
    for (int j = rect.colBegin; j < rect.colEnd; ++j) {
      const Owner owner = q.at(i, j);
      const bool isX = owner == x;
      if (targetIsX(i, j) && !isX) {
        // Only holes owned by the fastest processor P may be swapped out.
        // Claiming the other slow processor's cells would let the R and S
        // compactions displace each other back and forth at equal VoC —
        // a livelock. With P-only holes, each compaction is idempotent and
        // cannot disturb the other slow processor's region.
        if (owner != q.fastest()) return false;
        gain.push_back({i, j});
      } else if (!targetIsX(i, j) && isX) {
        release.push_back({i, j});
      }
    }
  if (gain.empty()) return false;  // layout already achieved
  PUSHPART_CHECK(gain.size() == release.size());

  const std::int64_t vocBefore = q.volumeOfCommunication();
  auto rectBefore = perOwner<Rect>(q);
  for (Owner p : q.slowOwners())
    rectBefore[ownerSlot(p)] = q.enclosingRect(p);

  std::vector<Owner> displaced;
  displaced.reserve(gain.size());
  for (const auto& [i, j] : gain) {
    displaced.push_back(q.at(i, j));
    q.set(i, j, x);
  }
  for (std::size_t k = 0; k < release.size(); ++k)
    q.set(release[k].first, release[k].second, displaced[k]);

  bool ok = q.volumeOfCommunication() <= vocBefore;
  // Only the slow processors' rectangles are constrained: they drive future
  // pushes and the archetype classification. P's enclosing rectangle is free
  // to change — it plays no role in VoC, and the paper's own Thm 8.2
  // transformations reshape enclosing rectangles as long as communication
  // does not increase.
  for (Owner p : q.slowOwners()) {
    const Rect after = q.enclosingRect(p);
    ok = ok && rectBefore[ownerSlot(p)].contains(after);
  }
  if (!ok) {
    for (std::size_t k = 0; k < release.size(); ++k)
      q.set(release[k].first, release[k].second, x);
    for (std::size_t k = 0; k < gain.size(); ++k)
      q.set(gain[k].first, gain[k].second, displaced[k]);
    return false;
  }
  return true;
}

}  // namespace engine_detail

/// compactRegion over any engine state (see beautify.hpp for the contract).
template <typename Q>
bool compactRegionState(Q& q, OwnerOf<Q> x) {
  const OwnerOf<Q> fastest = q.fastest();
  const Rect rect = q.enclosingRect(x);
  if (rect.isEmpty()) return false;
  if (q.count(x) == rect.area()) return false;  // already solid
  // Already in normal form: leave it alone. This is also what makes
  // compaction idempotent — every committed layout below ends
  // asymptotically rectangular, so a second call is a no-op rather than an
  // equal-VoC oscillation between fill orientations.
  if (isAsymptoticallyRectangular(q, x)) return false;

  const auto W = static_cast<std::int64_t>(rect.width());
  const auto H = static_cast<std::int64_t>(rect.height());
  const int rb = rect.rowBegin, re = rect.rowEnd;
  const int cb = rect.colBegin, ce = rect.colEnd;

  // Coverage-aware lane ordering. The re-layout's partial line hands its
  // leftover cells to P; if such a cell lands in a column (row, for the
  // column-major fills) where P appears nowhere outside this rectangle, that
  // line gains a third owner and VoC rises — the guard would reject a
  // re-layout the region actually admits. Ranking lanes so that the ones P
  // cannot otherwise cover are filled FIRST keeps the vacated cells in
  // P-covered lanes. With full P coverage the order degenerates to the
  // identity, so this subsumes the plain left-to-right fills.
  std::vector<std::int64_t> colPos(static_cast<std::size_t>(rect.width()));
  std::vector<std::int64_t> rowPos(static_cast<std::size_t>(rect.height()));
  {
    std::vector<int> pInRectCol(static_cast<std::size_t>(rect.width()), 0);
    std::vector<int> pInRectRow(static_cast<std::size_t>(rect.height()), 0);
    for (int i = rb; i < re; ++i)
      for (int j = cb; j < ce; ++j)
        if (q.at(i, j) == fastest) {
          ++pInRectCol[static_cast<std::size_t>(j - cb)];
          ++pInRectRow[static_cast<std::size_t>(i - rb)];
        }
    auto assignPositions = [](std::vector<std::int64_t>& pos,
                              auto needsCoverage) {
      std::int64_t next = 0;
      for (std::size_t lane = 0; lane < pos.size(); ++lane)
        if (needsCoverage(lane)) pos[lane] = next++;
      for (std::size_t lane = 0; lane < pos.size(); ++lane)
        if (!needsCoverage(lane)) pos[lane] = next++;
    };
    assignPositions(colPos, [&](std::size_t lane) {
      const int j = cb + static_cast<int>(lane);
      return q.colCount(fastest, j) - pInRectCol[lane] == 0;
    });
    assignPositions(rowPos, [&](std::size_t lane) {
      const int i = rb + static_cast<int>(lane);
      return q.rowCount(fastest, i) - pInRectRow[lane] == 0;
    });
  }

  // Four fill orientations; the partial line lands on the top row, bottom
  // row, right column or left column respectively. The first admissible
  // re-layout wins.
  const auto partialTop = [&, W](int i, int j) {
    return static_cast<std::int64_t>(re - 1 - i) * W +
           colPos[static_cast<std::size_t>(j - cb)];
  };
  const auto partialBottom = [&, W](int i, int j) {
    return static_cast<std::int64_t>(i - rb) * W +
           colPos[static_cast<std::size_t>(j - cb)];
  };
  const auto partialRight = [&, H](int i, int j) {
    return static_cast<std::int64_t>(j - cb) * H +
           rowPos[static_cast<std::size_t>(i - rb)];
  };
  const auto partialLeft = [&, H](int i, int j) {
    return static_cast<std::int64_t>(ce - 1 - j) * H +
           rowPos[static_cast<std::size_t>(i - rb)];
  };

  using engine_detail::tryCompactLayout;
  if (tryCompactLayout(q, x, rect, partialTop) ||
      tryCompactLayout(q, x, rect, partialBottom) ||
      tryCompactLayout(q, x, rect, partialRight) ||
      tryCompactLayout(q, x, rect, partialLeft))
    return true;

  // Whole-rectangle fills can fail when the region is *fragmented*: stripes
  // separated by untouched rows/columns have a smaller line footprint than
  // the enclosing rectangle, so filling the rectangle would dirty the gap
  // lines and the guard rejects it. But a solid box of exactly
  // rowsUsed × colsUsed dimensions has the same line footprint — and hence
  // the same VoC — as the fragmented region. Try that box anchored in each
  // corner of the enclosing rectangle (the guard still arbitrates).
  const auto rowsUsed = static_cast<std::int64_t>(q.rowsUsed(x));
  const auto colsUsed = static_cast<std::int64_t>(q.colsUsed(x));
  if (rowsUsed >= H && colsUsed >= W) return false;  // no smaller box exists

  const auto boxRank = [&](const Rect& box, bool fromBottom) {
    return [box, fromBottom](int i, int j) -> std::int64_t {
      if (!box.contains(i, j))
        return std::numeric_limits<std::int64_t>::max();
      const std::int64_t row =
          fromBottom ? (box.rowEnd - 1 - i) : (i - box.rowBegin);
      return row * box.width() + (j - box.colBegin);
    };
  };
  const int bh = static_cast<int>(rowsUsed);
  const int bw = static_cast<int>(colsUsed);
  const Rect corners[4] = {
      Rect{re - bh, re, cb, cb + bw},  // bottom-left
      Rect{re - bh, re, ce - bw, ce},  // bottom-right
      Rect{rb, rb + bh, cb, cb + bw},  // top-left
      Rect{rb, rb + bh, ce - bw, ce},  // top-right
  };
  for (const Rect& box : corners) {
    for (bool fromBottom : {true, false}) {
      if (tryCompactLayout(q, x, rect, boxRank(box, fromBottom))) return true;
    }
  }
  return false;
}

/// beautify over any engine state (see beautify.hpp for the contract).
template <typename Q>
BeautifyResult beautifyState(Q& q) {
  BeautifyResult result;
  result.vocBefore = q.volumeOfCommunication();
  // Pushes of all types are allowed, including the VoC-preserving Types Five
  // and Six: termination is guaranteed because every applied push strictly
  // shrinks the active processor's enclosing-rectangle area (its edge row is
  // cleaned and destinations lie strictly inside) while no other rectangle
  // may grow, so the sum of the slow owners' rectangle areas is a strictly
  // decreasing non-negative potential. Compaction keeps rectangles fixed and is
  // idempotent at a fixed state, so interleaving it cannot produce cycles.
  std::unordered_set<std::uint64_t> seen;  // belt-and-braces cycle guard
  bool any = true;
  while (any) {
    any = false;
    for (const auto active : q.slowOwners()) {
      for (Direction d : kAllDirections) {
        while (tryPushState(q, active, d).applied) {
          ++result.pushesApplied;
          any = true;
        }
      }
    }
    for (const auto active : q.slowOwners()) {
      if (compactRegionState(q, active)) any = true;
    }
    if (any && !seen.insert(q.hash()).second) break;
  }
  result.vocAfter = q.volumeOfCommunication();
  return result;
}

/// fullyCondensed over any engine state (see beautify.hpp for the contract).
template <typename Q>
bool fullyCondensedState(const Q& q) {
  for (const auto active : q.slowOwners()) {
    if (pushAvailableState(q, active, kAllDirections, PushOptions{}))
      return false;
  }
  return true;
}

}  // namespace pushpart
