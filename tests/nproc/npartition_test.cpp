#include "nproc/npartition.hpp"

#include <gtest/gtest.h>

#include "grid/metrics.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

TEST(NPartitionTest, FreshGridAllOnProcessorZero) {
  NPartition q(5, 4);
  EXPECT_EQ(q.procs(), 4);
  EXPECT_EQ(q.count(0), 25);
  for (NProcId p = 1; p < 4; ++p) EXPECT_EQ(q.count(p), 0);
  EXPECT_EQ(q.volumeOfCommunication(), 0);
}

TEST(NPartitionTest, BoundsChecked) {
  EXPECT_THROW(NPartition(0, 3), CheckError);
  EXPECT_THROW(NPartition(4, 1), CheckError);
  EXPECT_THROW(NPartition(4, 65), CheckError);
  NPartition q(4, 3);
  EXPECT_THROW(q.set(4, 0, 1), CheckError);
  EXPECT_THROW(q.set(0, 0, 3), CheckError);
  EXPECT_THROW(q.set(0, 0, -1), CheckError);
}

TEST(NPartitionTest, SetUpdatesCounters) {
  NPartition q(4, 4);
  q.set(1, 2, 3);
  EXPECT_EQ(q.at(1, 2), 3);
  EXPECT_EQ(q.count(3), 1);
  EXPECT_EQ(q.rowsUsed(3), 1);
  EXPECT_EQ(q.procsInRow(1), 2);
  EXPECT_EQ(q.volumeOfCommunication(), 8);
  q.validateCounters();
}

TEST(NPartitionTest, FourProcQuadrantsVoC) {
  // Four quadrants over four processors: every row and column has exactly
  // 2 owners → VoC = N·N + N·N.
  const int n = 8;
  NPartition q(n, 4);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const NProcId p = static_cast<NProcId>((i >= n / 2) * 2 + (j >= n / 2));
      q.set(i, j, p);
    }
  EXPECT_EQ(q.volumeOfCommunication(), 2LL * n * n);
  for (NProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(q.count(p), n * n / 4);
    EXPECT_TRUE(isAsymptoticallyRectangular(q, p));
  }
  q.validateCounters();
}

TEST(NPartitionTest, EnclosingRectPerProcessor) {
  NPartition q(6, 3);
  q.set(1, 1, 2);
  q.set(3, 4, 2);
  EXPECT_EQ(q.enclosingRect(2), (Rect{1, 4, 1, 5}));
  EXPECT_TRUE(q.enclosingRect(1).isEmpty());
}

TEST(NPartitionTest, AsymptoticRectangularity) {
  NPartition q(5, 3);
  for (int i = 1; i < 4; ++i)
    for (int j = 1; j < 4; ++j) q.set(i, j, 1);
  EXPECT_TRUE(isAsymptoticallyRectangular(q, 1));
  q.set(1, 1, 0);  // partial top row
  EXPECT_TRUE(isAsymptoticallyRectangular(q, 1));
  q.set(2, 2, 0);  // interior hole
  EXPECT_FALSE(isAsymptoticallyRectangular(q, 1));
  EXPECT_FALSE(isAsymptoticallyRectangular(q, 2));  // absent proc
}

TEST(NPartitionTest, HashAndEquality) {
  NPartition a(6, 3), b(6, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(0, 0, 2);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(NPartitionTest, RandomMutationKeepsCountersExact) {
  Rng rng(42);
  NPartition q(16, 6);
  for (int step = 0; step < 4000; ++step) {
    q.set(static_cast<int>(rng.below(16)), static_cast<int>(rng.below(16)),
          static_cast<NProcId>(rng.below(6)));
  }
  q.validateCounters();
}

class NPartitionProcCountTest : public ::testing::TestWithParam<int> {};

TEST_P(NPartitionProcCountTest, StripesAcrossKProcs) {
  const int k = GetParam();
  const int n = 2 * k;
  NPartition q(n, k);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) q.set(i, j, static_cast<NProcId>(j / 2 % k));
  q.validateCounters();
  // Columns single-owner, rows carry all k.
  EXPECT_EQ(q.volumeOfCommunication(), static_cast<std::int64_t>(n) * n * (k - 1));
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, NPartitionProcCountTest,
                         ::testing::Values(2, 3, 4, 5, 8));

}  // namespace
}  // namespace pushpart
