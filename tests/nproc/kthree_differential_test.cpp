// k = 3 differential: NPartition through the shared Push engine, in lockstep
// with the element-exact three-processor Partition.
//
// Seeded scattered walks start from the same cells on both states (processor
// 0 → P, 1 → R, 2 → S), run a random restricted schedule to its fixed point,
// compact both slow regions and finish with the unrestricted beautify pass.
// Every push attempt compares applied, type and the full cell grid; every
// compaction compares its verdict and cells; the beautify compares its push
// count and cells. Any divergence means the owner-generic instantiation made
// a different decision from the three-processor reference.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>

#include "grid/ratio.hpp"
#include "nproc/nsearch.hpp"
#include "push/engine.hpp"

namespace pushpart {
namespace {

constexpr int kWalks = 400;

Proc procOf(NProcId p) {
  constexpr std::array<Proc, 3> kProcOf = {Proc::P, Proc::R, Proc::S};
  return kProcOf[static_cast<std::size_t>(p)];
}

bool sameCells(const NPartition& nq, const Partition& q) {
  for (int i = 0; i < q.n(); ++i)
    for (int j = 0; j < q.n(); ++j)
      if (procOf(nq.at(i, j)) != q.at(i, j)) return false;
  return true;
}

/// First divergence of one walk, or an empty string when the walk agrees.
std::string lockstepWalk(std::uint64_t seed, std::int64_t& pushes) {
  Rng rng(seed);
  const Ratio ratio = paperRatios()[seed % paperRatios().size()];
  const int n = 20 + static_cast<int>(rng.below(29));
  NPartition nq =
      randomNPartition(n, NSpeeds{{ratio.p, ratio.r, ratio.s}}, rng);
  Partition q(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) q.set(i, j, procOf(nq.at(i, j)));

  std::ostringstream where;
  where << "seed " << seed << " n " << n << " ratio " << ratio.str() << ": ";
  const auto schedule = randomNSchedule(3, rng);
  for (int sweep = 0; sweep < 10'000; ++sweep) {
    bool anyApplied = false;
    for (const NScheduleSlot& slot : schedule) {
      const auto a = tryPushState(nq, slot.active, slot.dir);
      const auto b = tryPushState(q, procOf(slot.active), slot.dir);
      if (a.applied != b.applied || (a.applied && a.type != b.type) ||
          !sameCells(nq, q))
        return where.str() + "push";
      anyApplied |= a.applied;
      pushes += a.applied ? 1 : 0;
    }
    if (!anyApplied) break;
  }
  for (NProcId x = 1; x < 3; ++x) {
    const bool a = compactRegionState(nq, x);
    const bool b = compactRegionState(q, procOf(x));
    if (a != b || !sameCells(nq, q)) return where.str() + "compaction";
  }
  const BeautifyResult a = beautifyState(nq);
  const BeautifyResult b = beautifyState(q);
  if (a.pushesApplied != b.pushesApplied || !sameCells(nq, q))
    return where.str() + "beautify";
  return "";
}

TEST(KThreeDifferentialTest, SharedEngineMatchesThreeProcessorReference) {
  std::int64_t pushes = 0;
  for (int walk = 0; walk < kWalks; ++walk) {
    const std::string divergence =
        lockstepWalk(0xD1FF0000u + static_cast<std::uint64_t>(walk), pushes);
    if (!divergence.empty()) ADD_FAILURE() << "diverged at " << divergence;
  }
  EXPECT_GT(pushes, 10 * kWalks) << "walks too short to exercise the ladder";
}

}  // namespace
}  // namespace pushpart
