// Randomized condensation search for k processors (paper §XI direction).
//
// The k-ary analogue of the DFA program: random start state sized by a
// speed vector, random per-processor direction subsets, round-robin pushes
// to a fixed point, then a summary of the condensed geometry. For k = 3 this
// reproduces the paper's experiment through the shared Push engine; for
// k ≥ 4 it explores the territory the paper names as future work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nproc/npartition.hpp"
#include "push/direction.hpp"
#include "support/rng.hpp"

namespace pushpart {

/// Relative speeds; speeds[0] is the fastest processor (validated).
struct NSpeeds {
  std::vector<double> speeds;

  double total() const;
  bool valid() const;

  /// Element counts summing exactly to n²; processor 0 absorbs rounding.
  std::vector<std::int64_t> elementCounts(int n) const;

  /// Parses "8:4:2:1". Throws std::invalid_argument on bad input.
  static NSpeeds parse(const std::string& text);

  std::string str() const;
};

/// Scattered random start state (paper §VI-A2 generalized): all cells on
/// processor 0; each slower processor claims random still-unclaimed cells.
NPartition randomNPartition(int n, const NSpeeds& speeds, Rng& rng);

/// One randomized (processor, direction) schedule slot.
struct NScheduleSlot {
  NProcId active;
  Direction dir;
};

/// Random schedule: 1–4 directions per slow processor, shuffled order.
std::vector<NScheduleSlot> randomNSchedule(int procs, Rng& rng);

/// Geometry summary of a condensed k-ary partition.
struct NShapeStats {
  int procs = 0;
  std::int64_t voc = 0;
  int rectangularProcs = 0;   ///< slow processors that are asymptotically rect
  int slowProcs = 0;
  bool allSlowRectangular = false;
  /// Pairs of slow processors whose enclosing rectangles overlap.
  int overlappingPairs = 0;
};

NShapeStats summarizeShape(const NPartition& q);

struct NSearchResult {
  NPartition final;
  std::int64_t pushesApplied = 0;
  std::int64_t vocStart = 0;
  std::int64_t vocEnd = 0;
  NShapeStats stats;
};

/// Full walk: schedule-restricted round-robin pushes to a fixed point, then
/// an unrestricted beautify pass, both through the shared engine
/// (push/engine.hpp).
NSearchResult runNSearch(int n, const NSpeeds& speeds, Rng& rng,
                         std::int64_t maxPushes = 50'000'000);

}  // namespace pushpart
