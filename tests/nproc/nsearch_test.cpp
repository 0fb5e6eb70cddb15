#include "nproc/nsearch.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

namespace pushpart {
namespace {

TEST(NSpeedsTest, ParseAndValidate) {
  const auto s = NSpeeds::parse("8:4:2:1");
  ASSERT_EQ(s.speeds.size(), 4u);
  EXPECT_DOUBLE_EQ(s.total(), 15.0);
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.str(), "8:4:2:1");
}

TEST(NSpeedsTest, ParseErrors) {
  EXPECT_THROW(NSpeeds::parse(""), std::invalid_argument);
  EXPECT_THROW(NSpeeds::parse("5"), std::invalid_argument);
  EXPECT_THROW(NSpeeds::parse("5:-1"), std::invalid_argument);
  EXPECT_THROW(NSpeeds::parse("5;2"), std::invalid_argument);
}

TEST(NSpeedsTest, NonFiniteSpeedsRejected) {
  for (const char* text : {"inf:2:1:1", "1e400:2:1", "8:4:inf", "nan:1",
                           "4:nan:1"})
    EXPECT_THROW(NSpeeds::parse(text), std::invalid_argument) << text;
  NSpeeds s;
  s.speeds = {std::numeric_limits<double>::infinity(), 2, 1};
  EXPECT_FALSE(s.valid());
}

TEST(NSpeedsTest, FastestFirstRequired) {
  NSpeeds s;
  s.speeds = {2, 5, 1};
  EXPECT_FALSE(s.valid());
  s.speeds = {5, 5, 1};
  EXPECT_TRUE(s.valid());
}

TEST(NSpeedsTest, ElementCountsSumExactly) {
  for (const char* spec : {"4:1", "3:2:1", "8:4:2:1", "10:5:3:2:1"}) {
    const auto s = NSpeeds::parse(spec);
    for (int n : {10, 33, 100}) {
      const auto counts = s.elementCounts(n);
      std::int64_t sum = 0;
      for (auto c : counts) sum += c;
      EXPECT_EQ(sum, static_cast<std::int64_t>(n) * n) << spec << " n=" << n;
      // Fastest holds the plurality.
      for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_GE(counts[0], counts[i]);
    }
  }
}

TEST(RandomNPartitionTest, RespectsCounts) {
  Rng rng(5);
  const auto speeds = NSpeeds::parse("8:4:2:1");
  const auto q = randomNPartition(30, speeds, rng);
  const auto counts = speeds.elementCounts(30);
  for (NProcId p = 0; p < 4; ++p)
    EXPECT_EQ(q.count(p), counts[static_cast<std::size_t>(p)]);
  q.validateCounters();
}

TEST(RandomNScheduleTest, CoversSlowProcsOnly) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const auto slots = randomNSchedule(5, rng);
    ASSERT_GE(slots.size(), 4u);   // each of 4 slow procs at least once
    ASSERT_LE(slots.size(), 16u);
    std::set<NProcId> seen;
    for (const auto& slot : slots) {
      EXPECT_GE(slot.active, 1);
      EXPECT_LT(slot.active, 5);
      seen.insert(slot.active);
    }
    EXPECT_EQ(seen.size(), 4u);
  }
}

TEST(SummarizeShapeTest, QuadrantsAreFullyRectangular) {
  const int n = 8;
  NPartition q(n, 4);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      q.set(i, j, static_cast<NProcId>((i >= n / 2) * 2 + (j >= n / 2)));
  const auto stats = summarizeShape(q);
  EXPECT_EQ(stats.procs, 4);
  EXPECT_EQ(stats.slowProcs, 3);
  EXPECT_EQ(stats.rectangularProcs, 3);
  EXPECT_TRUE(stats.allSlowRectangular);
  EXPECT_EQ(stats.overlappingPairs, 0);
}

class NSearchTest
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
};

TEST_P(NSearchTest, SearchCondensesAndNeverWorsens) {
  const auto [speedStr, seed] = GetParam();
  const auto speeds = NSpeeds::parse(speedStr);
  Rng rng(seed);
  const auto result = runNSearch(24, speeds, rng);
  EXPECT_LE(result.vocEnd, result.vocStart);
  EXPECT_GT(result.pushesApplied, 0);
  result.final.validateCounters();
  const auto counts = speeds.elementCounts(24);
  for (NProcId p = 0; p < result.final.procs(); ++p)
    EXPECT_EQ(result.final.count(p), counts[static_cast<std::size_t>(p)]);
  // The condensed VoC sits far below the scattered start (scattered states
  // have nearly every line shared by every processor). For k = 2 the floor
  // is the Straight-Line's N² against a 2N² start, hence the 0.65 margin.
  EXPECT_LT(static_cast<double>(result.vocEnd),
            0.65 * static_cast<double>(result.vocStart));
}

INSTANTIATE_TEST_SUITE_P(
    SpeedVectors, NSearchTest,
    ::testing::Combine(::testing::Values("4:1", "2:1:1", "8:4:2:1",
                                         "4:2:2:1:1"),
                       ::testing::Values(7u, 123u)));

TEST(NSearchTest, DeterministicForSeed) {
  const auto speeds = NSpeeds::parse("8:4:2:1");
  Rng a(55), b(55);
  const auto ra = runNSearch(16, speeds, a);
  const auto rb = runNSearch(16, speeds, b);
  EXPECT_EQ(ra.final, rb.final);
  EXPECT_EQ(ra.pushesApplied, rb.pushesApplied);
}

}  // namespace
}  // namespace pushpart
