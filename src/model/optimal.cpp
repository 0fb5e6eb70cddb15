#include "model/optimal.hpp"

#include <algorithm>
#include <stdexcept>

namespace pushpart {

std::vector<RankedCandidate> rankCandidates(Algo algo, int n,
                                            const Machine& machine,
                                            Topology topology,
                                            StarConfig star) {
  std::vector<RankedCandidate> out;
  for (CandidateShape shape : kAllCandidates) {
    if (std::optional<RankedCandidate> ranked =
            rankOne(shape, algo, n, machine, topology, star))
      out.push_back(*ranked);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.model.execSeconds < b.model.execSeconds;
                   });
  return out;
}

RankedCandidate selectOptimal(Algo algo, int n, const Machine& machine,
                              Topology topology, StarConfig star) {
  const auto ranked = rankCandidates(algo, n, machine, topology, star);
  if (ranked.empty())
    throw std::runtime_error("selectOptimal: no feasible candidate for n=" +
                             std::to_string(n));
  return ranked.front();
}

std::optional<RankedCandidate> rankOne(CandidateShape shape, Algo algo, int n,
                                       const Machine& machine,
                                       Topology topology, StarConfig star) {
  if (!candidateFeasible(shape, n, machine.ratio)) return std::nullopt;
  const LineCounts q = candidateDescriptor(shape, n, machine.ratio).lineCounts();
  return RankedCandidate{shape, evalModel(algo, q, machine, topology, star),
                         q.volumeOfCommunication()};
}

}  // namespace pushpart
