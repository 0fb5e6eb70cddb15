#include "grid/ratio.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace pushpart {
namespace {

TEST(RatioTest, ParseBasic) {
  const auto r = Ratio::parse("5:2:1");
  EXPECT_DOUBLE_EQ(r.p, 5);
  EXPECT_DOUBLE_EQ(r.r, 2);
  EXPECT_DOUBLE_EQ(r.s, 1);
  EXPECT_DOUBLE_EQ(r.total(), 8);
}

TEST(RatioTest, ParseFractional) {
  const auto r = Ratio::parse("2.5:1.5:1");
  EXPECT_DOUBLE_EQ(r.p, 2.5);
  EXPECT_DOUBLE_EQ(r.r, 1.5);
}

TEST(RatioTest, ParseErrors) {
  EXPECT_THROW(Ratio::parse(""), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5:2"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5;2;1"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("a:b:c"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5:2:1:1"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5:2:0"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("-5:2:1"), std::invalid_argument);
}

TEST(RatioTest, NonFiniteSpeedsRejected) {
  // strtod accepts "inf" and "nan" and overflows "1e400" to infinity; none
  // is a speed.
  for (const char* text : {"inf:2:1", "5:inf:1", "1e400:2:1", "nan:2:1",
                           "5:2:nan", "infinity:1:1"})
    EXPECT_THROW(Ratio::parse(text), std::invalid_argument) << text;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE((Ratio{inf, 2, 1}).valid());
}

TEST(RatioTest, RoundTripString) {
  const auto r = Ratio::parse("10:3:1");
  EXPECT_EQ(r.str(), "10:3:1");
  EXPECT_EQ(Ratio::parse(r.str()), r);
}

TEST(RatioTest, SpeedAndFraction) {
  const Ratio r{5, 2, 1};
  EXPECT_DOUBLE_EQ(r.speed(Proc::P), 5);
  EXPECT_DOUBLE_EQ(r.speed(Proc::R), 2);
  EXPECT_DOUBLE_EQ(r.speed(Proc::S), 1);
  EXPECT_DOUBLE_EQ(r.fraction(Proc::P), 5.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.fraction(Proc::S), 1.0 / 8.0);
}

TEST(RatioTest, ElementCountsSumToN2) {
  for (const auto& r : paperRatios()) {
    for (int n : {10, 37, 100, 1000}) {
      const auto c = r.elementCounts(n);
      EXPECT_EQ(c[0] + c[1] + c[2], static_cast<std::int64_t>(n) * n)
          << "ratio " << r.str() << " n=" << n;
      // P gets the largest share (ratio assumption p >= r, s).
      EXPECT_GE(c[procIndex(Proc::P)], c[procIndex(Proc::R)]);
      EXPECT_GE(c[procIndex(Proc::P)], c[procIndex(Proc::S)]);
    }
  }
}

TEST(RatioTest, ElementCountsMatchFractions) {
  const Ratio r{2, 1, 1};
  const auto c = r.elementCounts(100);
  EXPECT_EQ(c[procIndex(Proc::P)], 5000);
  EXPECT_EQ(c[procIndex(Proc::R)], 2500);
  EXPECT_EQ(c[procIndex(Proc::S)], 2500);
}

TEST(RatioTest, NormalizedDividesBySlowest) {
  const Ratio r{10, 4, 2};
  const auto n = r.normalized();
  EXPECT_DOUBLE_EQ(n.p, 5);
  EXPECT_DOUBLE_EQ(n.r, 2);
  EXPECT_DOUBLE_EQ(n.s, 1);
}

TEST(RatioTest, ValidRequiresPFastest) {
  EXPECT_TRUE((Ratio{5, 2, 1}).valid());
  EXPECT_TRUE((Ratio{2, 2, 1}).valid());
  EXPECT_TRUE((Ratio{1, 1, 1}).valid());
  EXPECT_FALSE((Ratio{1, 2, 1}).valid());
  EXPECT_FALSE((Ratio{0, 1, 1}).valid());
}

TEST(RatioTest, PaperRatiosAreTheElevenStudied) {
  const auto& rs = paperRatios();
  EXPECT_EQ(rs.size(), 11u);
  EXPECT_EQ(rs[0].str(), "2:1:1");
  EXPECT_EQ(rs[4].str(), "10:1:1");
  EXPECT_EQ(rs[10].str(), "5:4:1");
  for (const auto& r : rs) EXPECT_TRUE(r.valid());
}

}  // namespace
}  // namespace pushpart
