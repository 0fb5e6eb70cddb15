// Shared construction primitives for the layered and hierarchical families.
//
// Everything here follows the canonical constructors' discipline
// (shapes/candidates.cpp): the grid starts fully owned by the *base*
// processor (P, or index 0), every other member is carved with its exact
// element count, and any integer-granularity slack simply stays with the
// base owner. Builders return false instead of throwing when an integer
// allotment cannot fit — enumeration skips infeasible specs silently.
//
// Templates are shared between the 3-processor PartitionDescriptor (owners
// are Proc; its carveBox overload below cuts rectangles instead of visiting
// cells) and the k-ary NPartition (owners are NProcId, carved cell by cell
// through the n()/at()/set() surface).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "grid/descriptor.hpp"
#include "support/check.hpp"

namespace pushpart::family_detail {

inline std::int64_t ceilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Splits n lines into bands: band k gets at least minLines[k] and the
/// vector sums to n, with the surplus handed out greedily toward each
/// band's real-valued target share targetLines[k] (largest deficit first).
/// Returns an empty vector when Σ minLines > n.
std::vector<int> allotLines(int n, const std::vector<int>& minLines,
                            const std::vector<double>& targetLines);

/// Claims `count` cells still owned by `base` inside the box
/// rows [r0, r1) × cols [c0, c1), scanning row-major (or column-major when
/// `colMajor`). Returns false (leaving a partial carve behind — callers
/// discard the grid) when the box runs out of base-owned cells.
template <typename Part, typename Owner>
bool carveBox(Part& q, Owner base, Owner x, int r0, int r1, int c0, int c1,
              std::int64_t count, bool colMajor = false) {
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

/// carveBox on a 3-processor descriptor (base is P). Every box a builder
/// carves is disjoint from the others, so all its cells are still P's and
/// the carve is the box's first `count` cells in scan order: full lines plus
/// one partial line. Returns false, changing nothing, when they do not fit.
inline bool carveBox(PartitionDescriptor& q, Proc base, Proc x, int r0,
                     int r1, int c0, int c1, std::int64_t count,
                     bool colMajor = false) {
  PUSHPART_CHECK(base == Proc::P);
  return q.carve(x, boxOrder(Rect{r0, r1, c0, c1}, !colMajor), 0, count);
}

/// Claims `count` base-owned cells from `cells` starting at *cursor,
/// advancing the cursor past every visited position. Assigning consecutive
/// segments of one ordered cell list to successive owners is how regions of
/// any shape (strips, corner squares, L-remainders) are sliced among group
/// members with exact counts.
template <typename Part, typename Owner>
bool carveCells(Part& q, Owner base, Owner x,
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

/// One member of one layer: an owner and its exact cell count.
template <typename Owner>
struct LayerMember {
  Owner owner;
  std::int64_t count = 0;
};

/// Builds a layer-based partition onto `q` (pre-filled with `base`):
/// layers become horizontal bands top→bottom (or vertical bands left→right
/// when !rowBands, i.e. the transpose), members sit side by side across
/// each band in listed order. Band depths and member widths are integer
/// allotments proportional to cell counts; members equal to `base` are
/// never carved (their share materializes as the uncarved remainder).
template <typename Part, typename Owner>
bool buildLayeredOnto(Part& q, Owner base,
                      const std::vector<std::vector<LayerMember<Owner>>>& layers,
                      bool rowBands) {
  const int n = q.n();
  const auto nn = static_cast<std::int64_t>(n);

  // The base owner is never carved — its share is whatever stays uncarved
  // anywhere on the grid — so only the *other* members constrain a band's
  // depth. (This is what makes awkward counts feasible: Σ ceil over every
  // member can overshoot n even when the carved members alone fit.)
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
    minDepth.push_back(
        std::max(1, static_cast<int>(ceilDiv(carved, nn))));
    targetDepth.push_back(static_cast<double>(total) / static_cast<double>(n));
  }
  std::vector<int> depth = allotLines(n, minDepth, targetDepth);

  // A band's carved members each need ceil(count/depth) lines across the
  // band; a proportional depth can leave a band one line short of that sum,
  // so grow tight bands at the expense of slack ones until every band fits.
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
      minWidth.push_back(
          m.owner == base ? 0
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

}  // namespace pushpart::family_detail
