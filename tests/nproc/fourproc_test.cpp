#include <gtest/gtest.h>

#include "grid/metrics.hpp"
#include "nproc/nshapes.hpp"
#include "push/engine.hpp"

namespace pushpart {
namespace {

const NSpeeds kSpeeds = NSpeeds::parse("8:4:2:1");

TEST(FourProcShapeTest, ExactCountsForAllShapes) {
  const int n = 60;
  const auto counts = kSpeeds.elementCounts(n);
  for (FourProcShape shape :
       {FourProcShape::kCornerSquares, FourProcShape::kBlockColumns,
        FourProcShape::kColumnStrips}) {
    if (!fourProcFeasible(shape, n, kSpeeds)) continue;
    const auto q = makeFourProcCandidate(shape, n, kSpeeds);
    for (NProcId p = 0; p < 4; ++p)
      EXPECT_EQ(q.count(p), counts[static_cast<std::size_t>(p)])
          << fourProcShapeName(shape) << " proc " << p;
    q.validateCounters();
  }
}

TEST(FourProcShapeTest, StripShapesAlwaysFeasible) {
  for (const char* spec : {"8:4:2:1", "4:1:1:1", "10:9:8:7"}) {
    const auto speeds = NSpeeds::parse(spec);
    EXPECT_TRUE(fourProcFeasible(FourProcShape::kBlockColumns, 40, speeds))
        << spec;
    EXPECT_TRUE(fourProcFeasible(FourProcShape::kColumnStrips, 40, speeds))
        << spec;
  }
}

TEST(FourProcShapeTest, CornerSquaresNeedRoom) {
  // Homogeneous speeds tile exactly into quadrants — feasible.
  EXPECT_TRUE(fourProcFeasible(FourProcShape::kCornerSquares, 40,
                               NSpeeds::parse("1:1:1:1")));
  // When the top-left and bottom-left squares together exceed the matrix
  // height, the corner placement cannot avoid sharing lines.
  EXPECT_FALSE(fourProcFeasible(FourProcShape::kCornerSquares, 40,
                                NSpeeds::parse("1.3:1.3:1:1.3")));
  // Strongly heterogeneous: small squares fit in separate corners.
  EXPECT_TRUE(fourProcFeasible(FourProcShape::kCornerSquares, 60,
                               NSpeeds::parse("20:2:2:1")));
}

TEST(FourProcShapeTest, WrongProcessorCountRejected) {
  EXPECT_FALSE(
      fourProcFeasible(FourProcShape::kBlockColumns, 40, NSpeeds::parse("3:1")));
  EXPECT_THROW(
      makeFourProcCandidate(FourProcShape::kBlockColumns, 40,
                            NSpeeds::parse("3:2:1")),
      std::invalid_argument);
}

TEST(FourProcShapeTest, SlowProcessorsAsymptoticallyRectangular) {
  const int n = 60;
  for (FourProcShape shape :
       {FourProcShape::kBlockColumns, FourProcShape::kColumnStrips}) {
    const auto q = makeFourProcCandidate(shape, n, kSpeeds);
    for (NProcId p = 1; p < 4; ++p)
      EXPECT_TRUE(isAsymptoticallyRectangular(q, p))
          << fourProcShapeName(shape) << " proc " << p;
  }
}

TEST(FourProcShapeTest, CornerSquaresAreNearSquares) {
  const auto speeds = NSpeeds::parse("20:2:2:1");
  const auto q = makeFourProcCandidate(FourProcShape::kCornerSquares, 60, speeds);
  for (NProcId p = 1; p < 4; ++p) {
    const Rect r = q.enclosingRect(p);
    EXPECT_LE(std::abs(r.width() - r.height()), 1) << "proc " << p;
  }
}

TEST(FourProcShapeTest, CandidatesAreCondensed) {
  // The canonical shapes admit no strictly improving k-ary push.
  const PushOptions strictOnly{.allowEqualVoC = false};
  for (FourProcShape shape :
       {FourProcShape::kBlockColumns, FourProcShape::kColumnStrips}) {
    auto q = makeFourProcCandidate(shape, 40, kSpeeds);
    for (NProcId p = 1; p < 4; ++p)
      for (Direction d : kAllDirections)
        EXPECT_FALSE(tryPushState(q, p, d, strictOnly).applied)
            << fourProcShapeName(shape) << " proc " << p << " "
            << directionName(d);
  }
}

TEST(FourProcShapeTest, SearchNeverBeatsCandidates) {
  // The weak form of Postulate 1, carried to k = 4: across a batch of
  // randomized condensations, nothing undercuts the best canonical shape.
  const int n = 32;
  std::int64_t bestCandidate = std::numeric_limits<std::int64_t>::max();
  for (FourProcShape shape :
       {FourProcShape::kCornerSquares, FourProcShape::kBlockColumns,
        FourProcShape::kColumnStrips}) {
    if (!fourProcFeasible(shape, n, kSpeeds)) continue;
    bestCandidate = std::min(
        bestCandidate,
        makeFourProcCandidate(shape, n, kSpeeds).volumeOfCommunication());
  }
  ASSERT_LT(bestCandidate, std::numeric_limits<std::int64_t>::max());

  Rng rng(404);
  for (int run = 0; run < 10; ++run) {
    const auto result = runNSearch(n, kSpeeds, rng);
    EXPECT_LE(bestCandidate, result.vocEnd) << "run " << run;
  }
}

}  // namespace
}  // namespace pushpart
