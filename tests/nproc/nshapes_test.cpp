#include "nproc/nshapes.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "grid/metrics.hpp"
#include "push/engine.hpp"
#include "support/check.hpp"

namespace pushpart {
namespace {

TEST(TwoProcShapeTest, StraightLineGeometry) {
  const int n = 60;
  const auto q = makeTwoProcCandidate(TwoProcShape::kStraightLine, n, 3.0);
  // Slow processor holds a full-height strip on the right.
  const Rect r = q.enclosingRect(1);
  EXPECT_EQ(r.rowBegin, 0);
  EXPECT_EQ(r.rowEnd, n);
  EXPECT_EQ(r.colEnd, n);
  EXPECT_TRUE(isAsymptoticallyRectangular(q, 1));
  EXPECT_EQ(q.count(1), static_cast<std::int64_t>(n) * n / 4);
}

TEST(TwoProcShapeTest, SquareCornerGeometry) {
  const int n = 60;
  const auto q = makeTwoProcCandidate(TwoProcShape::kSquareCorner, n, 8.0);
  const Rect r = q.enclosingRect(1);
  EXPECT_EQ(r.rowEnd, n);
  EXPECT_EQ(r.colEnd, n);
  EXPECT_LE(std::abs(r.width() - r.height()), 1);
  EXPECT_TRUE(isAsymptoticallyRectangular(q, 1));
}

TEST(TwoProcShapeTest, ExactCounts) {
  const int n = 50;
  for (double p : {1.0, 3.0, 8.0, 15.0}) {
    const auto slow = static_cast<std::int64_t>(
        std::floor(n * n / (p + 1.0)));
    for (TwoProcShape s :
         {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner,
          TwoProcShape::kRectangleCorner}) {
      const auto q = makeTwoProcCandidate(s, n, p);
      EXPECT_EQ(q.count(1), slow) << twoProcShapeName(s) << " p=" << p;
      EXPECT_EQ(q.count(0) + q.count(1), static_cast<std::int64_t>(n) * n);
    }
  }
}

TEST(TwoProcClosedFormTest, MatchesMeasuredVoC) {
  const int n = 200;
  for (double p : {1.0, 2.0, 3.0, 5.0, 10.0}) {
    for (TwoProcShape s :
         {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner,
          TwoProcShape::kRectangleCorner}) {
      const auto q = makeTwoProcCandidate(s, n, p);
      const double measured =
          static_cast<double>(q.volumeOfCommunication()) /
          (static_cast<double>(n) * n);
      EXPECT_NEAR(measured, twoProcClosedFormVoC(s, p), 4.0 / n + 0.01)
          << twoProcShapeName(s) << " p=" << p;
    }
  }
}

TEST(TwoProcClosedFormTest, ThreeToOneCrossover) {
  // The classical result the paper builds on: the Square-Corner beats the
  // Straight-Line exactly above P_r = 3.
  EXPECT_DOUBLE_EQ(kTwoProcCrossover, 3.0);
  EXPECT_GT(twoProcClosedFormVoC(TwoProcShape::kSquareCorner, 2.5),
            twoProcClosedFormVoC(TwoProcShape::kStraightLine, 2.5));
  EXPECT_NEAR(twoProcClosedFormVoC(TwoProcShape::kSquareCorner, 3.0),
              twoProcClosedFormVoC(TwoProcShape::kStraightLine, 3.0), 1e-12);
  EXPECT_LT(twoProcClosedFormVoC(TwoProcShape::kSquareCorner, 4.0),
            twoProcClosedFormVoC(TwoProcShape::kStraightLine, 4.0));
}

TEST(TwoProcClosedFormTest, CrossoverOnGrids) {
  const int n = 240;
  for (double p : {2.0, 5.0}) {
    const auto sc = makeTwoProcCandidate(TwoProcShape::kSquareCorner, n, p);
    const auto sl = makeTwoProcCandidate(TwoProcShape::kStraightLine, n, p);
    const bool scWins =
        sc.volumeOfCommunication() < sl.volumeOfCommunication();
    EXPECT_EQ(scWins, p > kTwoProcCrossover) << "p=" << p;
  }
}

TEST(TwoProcClosedFormTest, RectangleCornerAlwaysInferiorToSquare) {
  // AM–GM: w + h ≥ 2√(wh), equality only for the square — the paper's
  // "Rectangle-Corner always inferior" result. The theorem covers *corner*
  // rectangles (both dimensions < N); at low heterogeneity a wide-enough
  // aspect degenerates the rectangle into a straight line, which is a
  // different shape family.
  for (double p : {4.0, 6.0, 10.0}) {
    for (double aspect : {1.5, 2.0}) {
      const double share = 1.0 / (p + 1.0);
      ASSERT_LT(std::sqrt(share * aspect), 1.0) << "degenerate configuration";
      EXPECT_GT(twoProcClosedFormVoC(TwoProcShape::kRectangleCorner, p, aspect),
                twoProcClosedFormVoC(TwoProcShape::kSquareCorner, p));
    }
  }
  // And the degenerate wide rectangle legitimately becomes a straight line.
  EXPECT_DOUBLE_EQ(twoProcClosedFormVoC(TwoProcShape::kRectangleCorner, 1.0, 2.0),
                   twoProcClosedFormVoC(TwoProcShape::kStraightLine, 1.0));
}

TEST(TwoProcShapeTest, CandidatesArePushFixedPoints) {
  // Canonical two-processor shapes admit no strictly improving push.
  const int n = 40;
  const PushOptions strictOnly{.allowEqualVoC = false};
  for (double p : {3.0, 8.0}) {
    for (TwoProcShape s :
         {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner}) {
      auto q = makeTwoProcCandidate(s, n, p);
      for (Direction d : kAllDirections) {
        EXPECT_FALSE(tryPushState(q, 1, d, strictOnly).applied)
            << twoProcShapeName(s) << " " << directionName(d);
      }
    }
  }
}

TEST(TwoProcShapeTest, InvalidArgumentsRejected) {
  EXPECT_THROW(makeTwoProcCandidate(TwoProcShape::kSquareCorner, 40, 0.5),
               CheckError);
  EXPECT_THROW(
      makeTwoProcCandidate(TwoProcShape::kRectangleCorner, 40, 3.0, -1.0),
      CheckError);
}

}  // namespace
}  // namespace pushpart
