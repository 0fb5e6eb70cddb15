// Differential gate for the analytic candidate descriptors: every
// 3-processor candidate (six canonical shapes, 36 layered specs, 48
// hierarchical specs) built as owner rectangles must agree with the frozen
// cell-by-cell constructors in reference_builders.hpp — feasibility verdict,
// exception, cells, per-line counts, VoC, pair volumes, overlap, every model
// result bit for bit — and the registry must emit the same ordered names as
// grid-hash dedup over the reference grids.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "family/family.hpp"
#include "family/hierarchical.hpp"
#include "family/layered.hpp"
#include "grid/descriptor.hpp"
#include "grid/metrics.hpp"
#include "model/models.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"
#include "reference_builders.hpp"

namespace pushpart {
namespace {

constexpr std::array<Algo, 5> kAlgos = {Algo::kSCB, Algo::kPCB, Algo::kSCO,
                                        Algo::kPCO, Algo::kPIO};

bool bitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bitEqual(const ModelResult& a, const ModelResult& b) {
  return bitEqual(a.commSeconds, b.commSeconds) &&
         bitEqual(a.overlapSeconds, b.overlapSeconds) &&
         bitEqual(a.compSeconds, b.compSeconds) &&
         bitEqual(a.execSeconds, b.execSeconds);
}

/// Everything a descriptor answers must match the reference grid.
void expectMatches(const PartitionDescriptor& d, const Partition& ref,
                   const Ratio& ratio, const std::string& what) {
  ASSERT_EQ(d.n(), ref.n()) << what;
  // toPartition() writes its counters in bulk, so they are checked here
  // alongside the cells (the reference maintained them cell by cell).
  const Partition q = d.toPartition();
  ASSERT_TRUE(q == ref) << what << ": cells differ";

  const LineCounts lc = d.lineCounts();
  // Per-line counters compared with plain loops (one assertion per check,
  // not per line, keeps the sanitizer builds fast).
  const auto firstLineMismatch = [&](const auto& counts) {
    for (int i = 0; i < ref.n(); ++i) {
      for (const Proc x : kAllProcs)
        if (counts.rowCount(x, i) != ref.rowCount(x, i) ||
            counts.colCount(x, i) != ref.colCount(x, i))
          return i;
      if (counts.procsInRow(i) != ref.procsInRow(i) ||
          counts.procsInCol(i) != ref.procsInCol(i))
        return i;
    }
    return -1;
  };
  ASSERT_EQ(firstLineMismatch(lc), -1) << what << ": line counts";
  ASSERT_EQ(firstLineMismatch(q), -1) << what << ": toPartition counters";
  for (const Proc x : kAllProcs) {
    ASSERT_EQ(lc.count(x), ref.count(x)) << what;
    ASSERT_EQ(q.count(x), ref.count(x)) << what;
    ASSERT_EQ(q.rowsUsed(x), ref.rowsUsed(x)) << what;
    ASSERT_EQ(q.colsUsed(x), ref.colsUsed(x)) << what;
    ASSERT_EQ(q.enclosingRect(x), ref.enclosingRect(x)) << what;
    ASSERT_EQ(overlapElements(lc, x), overlapElements(ref, x)) << what;
  }
  ASSERT_EQ(lc.volumeOfCommunication(), ref.volumeOfCommunication()) << what;
  ASSERT_EQ(q.volumeOfCommunication(), ref.volumeOfCommunication()) << what;
  ASSERT_EQ(pairVolumes(lc), pairVolumes(ref)) << what;

  Machine machine;
  machine.ratio = ratio;
  for (const Algo algo : kAlgos)
    for (const Topology topology :
         {Topology::kFullyConnected, Topology::kStar})
      ASSERT_TRUE(bitEqual(evalModel(algo, lc, machine, topology),
                           evalModel(algo, ref, machine, topology)))
          << what << " algo " << algoName(algo);
}

/// Checks every candidate at (n, ratio) and the registry's dedup order.
void checkAll(int n, const Ratio& ratio, bool canonicalOnly = false) {
  const std::string at = " n=" + std::to_string(n) + " ratio=" + ratio.str();
  std::vector<std::string> expectNames;
  std::unordered_set<std::uint64_t> seen;
  const auto keep = [&](const std::string& name, const Partition& grid) {
    if (seen.insert(grid.hash()).second) expectNames.push_back(name);
  };

  for (const CandidateShape shape : kAllCandidates) {
    const std::string what = candidateName(shape) + at;
    const bool feasible = reference::candidateFeasible(shape, n, ratio);
    ASSERT_EQ(candidateFeasible(shape, n, ratio), feasible) << what;
    if (!feasible) {
      std::string expected, got;
      try {
        (void)reference::makeCandidate(shape, n, ratio);
      } catch (const std::invalid_argument& e) {
        expected = e.what();
      }
      try {
        (void)candidateDescriptor(shape, n, ratio);
      } catch (const std::invalid_argument& e) {
        got = e.what();
      }
      ASSERT_FALSE(expected.empty()) << what;
      ASSERT_EQ(got, expected) << what;
      continue;
    }
    const Partition ref = reference::makeCandidate(shape, n, ratio);
    ASSERT_NO_FATAL_FAILURE(
        expectMatches(candidateDescriptor(shape, n, ratio), ref, ratio, what));
    keep(candidateName(shape), ref);
  }
  if (canonicalOnly) return;

  for (const LayeredSpec& spec : allLayeredSpecs()) {
    const std::string what = layeredSpecName(spec) + at;
    const std::optional<Partition> ref =
        reference::makeLayeredPartition(n, ratio, spec);
    const std::optional<PartitionDescriptor> d =
        layeredDescriptor(n, ratio, spec);
    ASSERT_EQ(d.has_value(), ref.has_value()) << what;
    if (!ref) continue;
    ASSERT_NO_FATAL_FAILURE(expectMatches(*d, *ref, ratio, what));
    keep(layeredSpecName(spec), *ref);
  }
  for (const HierSpec& spec : allHierSpecs()) {
    const std::string what = hierSpecName(spec) + at;
    const std::optional<Partition> ref =
        reference::makeHierPartition(n, ratio, spec);
    const std::optional<PartitionDescriptor> d = hierDescriptor(n, ratio, spec);
    ASSERT_EQ(d.has_value(), ref.has_value()) << what;
    if (!ref) continue;
    ASSERT_NO_FATAL_FAILURE(expectMatches(*d, *ref, ratio, what));
    keep(hierSpecName(spec), *ref);
  }

  std::vector<std::string> names;
  builtinFamilies().forEach(n, ratio, FamilySet::all(),
                            [&](const FamilyCandidate& c) {
                              names.push_back(c.name);
                            });
  ASSERT_EQ(names, expectNames) << at;
}

/// The paper's eleven ratios plus seeded off-grid ones (including R slower
/// than S and near-ties).
std::vector<Ratio> sweepRatios() {
  std::vector<Ratio> out(paperRatios().begin(), paperRatios().end());
  Rng rng(1506);
  for (int k = 0; k < 4; ++k) {
    const double p = 1.0 + 14.0 * rng.real();
    out.push_back(Ratio{p, 0.2 + (p - 0.2) * rng.real(),
                        0.2 + (p - 0.2) * rng.real()});
  }
  return out;
}

class DescriptorDifferential : public ::testing::TestWithParam<Ratio> {};

TEST_P(DescriptorDifferential, EveryCandidateUpTo200) {
  for (int n = 1; n <= 200; ++n)
    ASSERT_NO_FATAL_FAILURE(checkAll(n, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(PaperAndSeeded, DescriptorDifferential,
                         ::testing::ValuesIn(sweepRatios()));

TEST(DescriptorDifferentialLarge, SampledSizes) {
  for (const Ratio& ratio : {Ratio{5, 2, 1}, sweepRatios().back()})
    for (const int n : {509, 1000, 1024})
      ASSERT_NO_FATAL_FAILURE(checkAll(n, ratio));
}

TEST(DescriptorDifferentialLarge, CanonicalAt3000) {
  for (const Ratio& ratio : {Ratio{5, 2, 1}, Ratio{10, 1, 1}})
    ASSERT_NO_FATAL_FAILURE(checkAll(3000, ratio, /*canonicalOnly=*/true));
}

}  // namespace
}  // namespace pushpart
