#include "family/rank.hpp"

#include <algorithm>
#include <stdexcept>

#include "bounds/bounds.hpp"

namespace pushpart {

namespace {

FamilyRanked rankMember(const FamilyCandidate& c, Algo algo,
                        const Machine& machine, Topology topology,
                        StarConfig star, std::int64_t bound) {
  const LineCounts q = c.descriptor.lineCounts();
  FamilyRanked r;
  r.family = c.family;
  r.name = c.name;
  r.shape = c.shape;
  r.model = evalModel(algo, q, machine, topology, star);
  r.voc = q.volumeOfCommunication();
  r.gapPct = optimalityGapPct(r.voc, bound);
  r.descriptor = c.descriptor;
  return r;
}

/// Ranking order: modeled time, then family id, then name.
bool rankedBefore(const FamilyRanked& a, const FamilyRanked& b) {
  if (a.model.execSeconds != b.model.execSeconds)
    return a.model.execSeconds < b.model.execSeconds;
  if (a.family != b.family) return a.family < b.family;
  return a.name < b.name;
}

}  // namespace

std::vector<FamilyRanked> rankFamilyCandidates(Algo algo, int n,
                                               const Machine& machine,
                                               FamilySet selection,
                                               Topology topology,
                                               StarConfig star) {
  const std::int64_t bound = vocLowerBound(n, machine.ratio);
  std::vector<FamilyRanked> out;
  builtinFamilies().forEach(
      n, machine.ratio, selection, [&](const FamilyCandidate& c) {
        out.push_back(rankMember(c, algo, machine, topology, star, bound));
      });
  std::sort(out.begin(), out.end(), rankedBefore);
  return out;
}

std::optional<FamilyRanked> bestFamilyCandidate(Algo algo, int n,
                                                const Machine& machine,
                                                FamilySet selection,
                                                Topology topology,
                                                StarConfig star) {
  // Streaming min — the full sort above is unnecessary for serving.
  const std::int64_t bound = vocLowerBound(n, machine.ratio);
  std::optional<FamilyRanked> best;
  builtinFamilies().forEach(
      n, machine.ratio, selection, [&](const FamilyCandidate& c) {
        FamilyRanked r = rankMember(c, algo, machine, topology, star, bound);
        if (!best || rankedBefore(r, *best)) best = std::move(r);
      });
  return best;
}

TierARanking rankTierA(Algo algo, int n, const Machine& machine,
                       FamilySet selection, Topology topology,
                       StarConfig star) {
  if (!selection.extended())
    return {selectOptimal(algo, n, machine, topology, star), std::nullopt};

  // The canonical shapes are always enumerated (first, in kAllCandidates
  // order) for the canonical pick; only the selected families compete for
  // the family pick. Adding canonical to a selection without it can only
  // dedup away a member whose grid equals a canonical shape's — it ties
  // that shape, so it can never beat the canonical pick anyway.
  FamilySet all = selection;
  all.insert(FamilyId::kCanonical);
  const std::int64_t bound = vocLowerBound(n, machine.ratio);
  std::optional<RankedCandidate> canonical;
  TierARanking out;
  builtinFamilies().forEach(
      n, machine.ratio, all, [&](const FamilyCandidate& c) {
        FamilyRanked r = rankMember(c, algo, machine, topology, star, bound);
        if (c.shape &&
            (!canonical || r.model.execSeconds < canonical->model.execSeconds))
          canonical = RankedCandidate{*c.shape, r.model, r.voc};
        if (selection.contains(c.family) &&
            (!out.family || rankedBefore(r, *out.family)))
          out.family = std::move(r);
      });
  if (!canonical)
    throw std::runtime_error("selectOptimal: no feasible candidate for n=" +
                             std::to_string(n));
  out.canonical = *canonical;
  return out;
}

}  // namespace pushpart
