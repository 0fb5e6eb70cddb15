// The shared Push engine (push/engine.hpp) instantiated on k-processor
// NPartition states.
#include <gtest/gtest.h>

#include <tuple>

#include "nproc/nsearch.hpp"
#include "push/engine.hpp"
#include "support/check.hpp"

namespace pushpart {
namespace {

NPartition fourProcGrid(int n) {
  NPartition q(n, 4);
  return q;
}

TEST(NPushTest, FastestProcessorRejected) {
  auto q = fourProcGrid(6);
  EXPECT_THROW(tryPushState(q, 0, Direction::Down), CheckError);
  EXPECT_THROW(tryPushState(q, 4, Direction::Down), CheckError);
}

TEST(NPushTest, SimpleDownPushOnKAryGrid) {
  // Processor 2 owns a ragged column; the stray top element drops inward.
  NPartition q(5, 4);
  q.set(0, 0, 2);
  q.set(0, 1, 2);
  q.set(1, 0, 2);
  q.set(2, 0, 2);
  const auto before = q.volumeOfCommunication();
  const auto out = tryPushState(q, 2, Direction::Down);
  ASSERT_TRUE(out.applied);
  EXPECT_LT(q.volumeOfCommunication(), before);
  EXPECT_EQ(q.rowCount(2, 0), 0);
  EXPECT_EQ(q.count(2), 4);
  q.validateCounters();
}

TEST(NPushTest, FailedPushLeavesGridUntouched) {
  NPartition q(5, 4);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) q.set(i, j, 1);  // solid square: no pushes
  const auto original = q;
  for (Direction d : kAllDirections) {
    EXPECT_FALSE(tryPushState(q, 1, d).applied) << directionName(d);
    EXPECT_EQ(q, original);
  }
}

TEST(NPushTest, ThreeProcViaGeneralEngineMatchesInvariants) {
  // k = 3 on NPartition obeys the guarantees the engine enforces on the
  // three-processor grid.
  Rng rng(9);
  const auto speeds = NSpeeds::parse("3:2:1");
  auto q = randomNPartition(24, speeds, rng);
  const auto counts = speeds.elementCounts(24);
  for (int step = 0; step < 200; ++step) {
    const NProcId active = 1 + static_cast<NProcId>(rng.below(2));
    const Direction dir = kAllDirections[rng.below(4)];
    const auto voc = q.volumeOfCommunication();
    (void)tryPushState(q, active, dir);
    ASSERT_LE(q.volumeOfCommunication(), voc);
    for (NProcId p = 0; p < 3; ++p)
      ASSERT_EQ(q.count(p), counts[static_cast<std::size_t>(p)]);
  }
  q.validateCounters();
}

using NPushParam = std::tuple<const char*, std::uint64_t>;

class NPushPropertyTest : public ::testing::TestWithParam<NPushParam> {};

TEST_P(NPushPropertyTest, PushInvariantsHoldForKProcs) {
  const auto [speedStr, seed] = GetParam();
  const auto speeds = NSpeeds::parse(speedStr);
  Rng rng(seed);
  auto q = randomNPartition(20, speeds, rng);
  const int k = q.procs();
  for (int step = 0; step < 150; ++step) {
    const NProcId active =
        1 + static_cast<NProcId>(rng.below(static_cast<std::uint64_t>(k - 1)));
    const Direction dir = kAllDirections[rng.below(4)];
    const auto voc = q.volumeOfCommunication();
    std::vector<Rect> rects;
    for (NProcId p = 1; p < k; ++p) rects.push_back(q.enclosingRect(p));
    const auto out = tryPushState(q, active, dir);
    ASSERT_LE(q.volumeOfCommunication(), voc);
    if (out.applied) {
      for (NProcId p = 1; p < k; ++p)
        ASSERT_TRUE(rects[static_cast<std::size_t>(p - 1)].contains(
            q.enclosingRect(p)))
            << "proc " << p << " rect grew";
    }
  }
  q.validateCounters();
}

INSTANTIATE_TEST_SUITE_P(
    SpeedVectors, NPushPropertyTest,
    ::testing::Combine(::testing::Values("4:1", "3:2:1", "8:4:2:1",
                                         "5:3:2:1:1"),
                       ::testing::Values(3u, 17u)));

TEST(CondenseNTest, ReachesFixedPoint) {
  Rng rng(21);
  const auto speeds = NSpeeds::parse("8:4:2:1");
  auto q = randomNPartition(20, speeds, rng);
  const auto before = q.volumeOfCommunication();
  const auto pushes = beautifyState(q).pushesApplied;
  EXPECT_GT(pushes, 0);
  EXPECT_LT(q.volumeOfCommunication(), before);
  // Fixed point: another pass applies nothing.
  EXPECT_EQ(beautifyState(q).pushesApplied, 0);
  q.validateCounters();
}

}  // namespace
}  // namespace pushpart
