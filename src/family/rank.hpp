// Model-layer ranking across candidate families — the family analogue of
// model/optimal.hpp's rankCandidates, with the Al Daas communication lower
// bound (src/bounds) attached to every entry as a certified optimality gap.
#pragma once

#include <optional>
#include <vector>

#include "family/family.hpp"
#include "model/optimal.hpp"

namespace pushpart {

/// One ranked family candidate: modeled timing plus its VoC distance from
/// the scenario's partition-independent communication lower bound.
struct FamilyRanked {
  FamilyId family = FamilyId::kCanonical;
  std::string name;                      ///< Space-free candidate token.
  std::optional<CandidateShape> shape;   ///< Canonical members only.
  ModelResult model;
  std::int64_t voc = 0;
  double gapPct = 0.0;  ///< 100·(voc − bound)/bound, always >= 0.
  /// The candidate itself; descriptor.toPartition() materializes it.
  PartitionDescriptor descriptor{1};
};

/// Ranks every feasible candidate of the selected families by modeled
/// execution time (ascending; deterministic tie-break by family id then
/// name). Each candidate is costed from its descriptor's line counts; no
/// grid is built.
std::vector<FamilyRanked> rankFamilyCandidates(
    Algo algo, int n, const Machine& machine, FamilySet selection,
    Topology topology = Topology::kFullyConnected, StarConfig star = {});

/// The winner of rankFamilyCandidates, or nullopt when no candidate in the
/// selection is feasible.
std::optional<FamilyRanked> bestFamilyCandidate(
    Algo algo, int n, const Machine& machine, FamilySet selection,
    Topology topology = Topology::kFullyConnected, StarConfig star = {});

/// Tier A's two answers from one pass over the candidates, each shape
/// costed once.
struct TierARanking {
  /// selectOptimal's pick: the first minimum in kAllCandidates order.
  RankedCandidate canonical;
  /// bestFamilyCandidate's pick over `selection`; set only when the
  /// selection is extended (and some member is feasible).
  std::optional<FamilyRanked> family;
};

/// selectOptimal and, for an extended selection, bestFamilyCandidate in one
/// ranking pass. Throws std::runtime_error like selectOptimal when no
/// canonical shape is feasible.
TierARanking rankTierA(Algo algo, int n, const Machine& machine,
                       FamilySet selection,
                       Topology topology = Topology::kFullyConnected,
                       StarConfig star = {});

}  // namespace pushpart
