#include "model/models.hpp"

#include <algorithm>
#include <array>

#include "grid/metrics.hpp"
#include "support/check.hpp"

namespace pushpart {

namespace {

/// Communication volumes after topology routing.
struct CommVolumes {
  std::int64_t serialTotal = 0;                    ///< Σ link crossings.
  std::array<std::int64_t, kNumProcs> perProc{};   ///< Outbound per processor.
};

template <typename Q>
CommVolumes routedVolumes(const Q& q, Topology topology, StarConfig star) {
  const auto v = pairVolumes(q);
  CommVolumes out;
  for (int s = 0; s < kNumProcs; ++s)
    for (int r = 0; r < kNumProcs; ++r)
      out.serialTotal += v[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];

  if (topology == Topology::kFullyConnected) {
    for (int s = 0; s < kNumProcs; ++s)
      for (int r = 0; r < kNumProcs; ++r)
        out.perProc[static_cast<std::size_t>(s)] +=
            v[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];
    return out;
  }

  // Star: spoke↔spoke elements cross two links (spoke→hub, hub→spoke). The
  // hub pays the forwarding on its outbound budget.
  const auto hub = static_cast<std::size_t>(procIndex(star.hub));
  std::int64_t forwarded = 0;
  for (int s = 0; s < kNumProcs; ++s) {
    for (int r = 0; r < kNumProcs; ++r) {
      const auto ss = static_cast<std::size_t>(s);
      const auto rr = static_cast<std::size_t>(r);
      if (v[ss][rr] == 0) continue;
      out.perProc[ss] += v[ss][rr];  // first hop is always the sender's
      if (ss != hub && rr != hub) {
        forwarded += v[ss][rr];
        out.perProc[hub] += v[ss][rr];  // second hop
      }
    }
  }
  out.serialTotal += forwarded;
  return out;
}

}  // namespace

template <typename Q>
ModelResult evalModel(Algo algo, const Q& q, const Machine& machine,
                      Topology topology, StarConfig star) {
  PUSHPART_CHECK_MSG(machine.ratio.valid(),
                     "invalid machine ratio " << machine.ratio.str());
  const int n = q.n();
  const CommVolumes vol = routedVolumes(q, topology, star);
  const double tsend = machine.sendElementSeconds;

  // Per-processor computation loads: each owned C element takes N MACs.
  std::array<double, kNumProcs> compFull{};   // all owned elements
  std::array<double, kNumProcs> compOverlap{};
  std::array<double, kNumProcs> compRemainder{};
  std::array<double, kNumProcs> compOneStep{};  // one pivot step (PIO)
  for (Proc x : kAllProcs) {
    const auto xi = procSlot(x);
    const std::int64_t owned = q.count(x);
    compFull[xi] = machine.computeSeconds(x, owned * n);
    const std::int64_t local = overlapElements(q, x);
    compOverlap[xi] = machine.computeSeconds(x, local * n);
    compRemainder[xi] = machine.computeSeconds(x, (owned - local) * n);
    compOneStep[xi] = machine.computeSeconds(x, owned);
  }
  const double maxFull = *std::max_element(compFull.begin(), compFull.end());
  const double maxOverlap =
      *std::max_element(compOverlap.begin(), compOverlap.end());
  const double maxRemainder =
      *std::max_element(compRemainder.begin(), compRemainder.end());
  const double maxStep =
      *std::max_element(compOneStep.begin(), compOneStep.end());

  const double serialComm =
      tsend * static_cast<double>(vol.serialTotal);
  double parallelComm = 0.0;
  for (auto d : vol.perProc)
    parallelComm = std::max(parallelComm, tsend * static_cast<double>(d));

  ModelResult result;
  switch (algo) {
    case Algo::kSCB:
      result.commSeconds = serialComm;
      result.compSeconds = maxFull;
      result.execSeconds = serialComm + maxFull;
      break;
    case Algo::kPCB:
      result.commSeconds = parallelComm;
      result.compSeconds = maxFull;
      result.execSeconds = parallelComm + maxFull;
      break;
    case Algo::kSCO:
      result.commSeconds = serialComm;
      result.overlapSeconds = maxOverlap;
      result.compSeconds = maxRemainder;
      result.execSeconds = std::max(serialComm, maxOverlap) + maxRemainder;
      break;
    case Algo::kPCO:
      result.commSeconds = parallelComm;
      result.overlapSeconds = maxOverlap;
      result.compSeconds = maxRemainder;
      result.execSeconds = std::max(parallelComm, maxOverlap) + maxRemainder;
      break;
    case Algo::kPIO: {
      // Per-step comm: pivot row/column k changes owner mix per k (Eq. 9).
      // Under a star, spoke-owned pivot elements relayed to the other spoke
      // are charged a second crossing (upper bound: every spoke pivot
      // element forwarded).
      double total = 0.0;
      for (int k = 0; k < n; ++k) {
        std::int64_t stepVolume =
            static_cast<std::int64_t>(n) * (q.procsInRow(k) - 1) +
            static_cast<std::int64_t>(n) * (q.procsInCol(k) - 1);
        if (topology == Topology::kStar) {
          for (Proc x : kSlowProcs) {
            if (x == star.hub) continue;
            stepVolume += q.rowCount(x, k) + q.colCount(x, k);
          }
        }
        const double stepComm = tsend * static_cast<double>(stepVolume);
        if (k == 0) {
          total += stepComm;  // priming send
        } else {
          total += std::max(stepComm, maxStep);
        }
        result.commSeconds += stepComm;
      }
      total += maxStep;  // the drain step computes the final pivot
      result.compSeconds = maxStep * n;
      result.execSeconds = total;
      break;
    }
  }
  return result;
}

template ModelResult evalModel(Algo, const Partition&, const Machine&,
                               Topology, StarConfig);
template ModelResult evalModel(Algo, const LineCounts&, const Machine&,
                               Topology, StarConfig);

double commSeconds(Algo algo, const Partition& q, const Machine& machine,
                   Topology topology, StarConfig star) {
  return evalModel(algo, q, machine, topology, star).commSeconds;
}

ModelResult evalPioBlocked(const Partition& q, const Machine& machine,
                           int blockSize, Topology topology, StarConfig star) {
  PUSHPART_CHECK_MSG(blockSize >= 1, "PIO block size must be positive");
  PUSHPART_CHECK_MSG(machine.ratio.valid(),
                     "invalid machine ratio " << machine.ratio.str());
  const int n = q.n();
  const double tsend = machine.sendElementSeconds;

  double maxStep = 0.0;
  for (Proc x : kAllProcs)
    maxStep = std::max(maxStep, machine.computeSeconds(x, q.count(x)));

  auto stepVolume = [&](int k) {
    std::int64_t volume = static_cast<std::int64_t>(n) * (q.procsInRow(k) - 1) +
                          static_cast<std::int64_t>(n) * (q.procsInCol(k) - 1);
    if (topology == Topology::kStar) {
      for (Proc x : kSlowProcs) {
        if (x == star.hub) continue;
        volume += q.rowCount(x, k) + q.colCount(x, k);
      }
    }
    return volume;
  };

  ModelResult result;
  double total = 0.0;
  int k = 0;
  int prevBlockSteps = 0;  // 0 for the priming block: nothing to overlap
  while (k < n) {
    const int blockEnd = std::min(n, k + blockSize);
    std::int64_t blockVolume = 0;
    for (int p = k; p < blockEnd; ++p) blockVolume += stepVolume(p);
    const double blockComm = tsend * static_cast<double>(blockVolume);
    // This block's exchange overlaps the *previous* block's compute.
    total += std::max(blockComm, maxStep * prevBlockSteps);
    result.commSeconds += blockComm;
    prevBlockSteps = blockEnd - k;
    k = blockEnd;
  }
  total += maxStep * prevBlockSteps;  // drain: compute the final block
  result.compSeconds = maxStep * n;
  result.execSeconds = total;
  return result;
}

}  // namespace pushpart
