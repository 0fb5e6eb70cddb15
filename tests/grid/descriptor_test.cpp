#include "grid/descriptor.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "grid/metrics.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

/// The cells of `order`, one by one, in visit order.
std::vector<std::pair<int, int>> orderCells(const CellOrder& order) {
  std::vector<std::pair<int, int>> out;
  for (const LineRun& run : order) {
    for (int k = 0; k < run.lines; ++k) {
      const int line = run.first + k * run.step;
      for (int o = 0; o < run.hi - run.lo; ++o) {
        const int cross = run.reverse ? run.hi - 1 - o : run.lo + o;
        out.push_back(run.rows ? std::pair{line, cross}
                               : std::pair{cross, line});
      }
    }
  }
  return out;
}

/// bandRuns() computed from the cells: each row's owner runs, equal
/// consecutive rows merged into one band.
std::vector<std::int32_t> bandRunsOfGrid(const Partition& q) {
  std::vector<std::int32_t> form, prev;
  std::int32_t height = 0;
  const auto flush = [&] {
    if (height == 0) return;
    form.push_back(height);
    form.push_back(static_cast<std::int32_t>(prev.size() / 2));
    form.insert(form.end(), prev.begin(), prev.end());
  };
  for (int i = 0; i < q.n(); ++i) {
    std::vector<std::int32_t> runs;
    for (int j = 0; j < q.n(); ++j) {
      const auto code = static_cast<std::int32_t>(q.at(i, j));
      if (!runs.empty() && runs[runs.size() - 2] == code)
        ++runs.back();
      else
        runs.insert(runs.end(), {code, 1});
    }
    if (runs != prev) {
      flush();
      prev = runs;
      height = 0;
    }
    ++height;
  }
  flush();
  return form;
}

TEST(PartitionDescriptorTest, EmptyDescriptorIsAllP) {
  const PartitionDescriptor d(7);
  EXPECT_TRUE(d.toPartition() == Partition(7));
  const LineCounts lc = d.lineCounts();
  EXPECT_EQ(lc.count(Proc::P), 49);
  EXPECT_EQ(lc.count(Proc::R), 0);
  EXPECT_EQ(lc.volumeOfCommunication(), 0);
  EXPECT_EQ(overlapElements(lc, Proc::P), 49);
  EXPECT_EQ(d.bandRuns(), (std::vector<std::int32_t>{7, 1, 2, 7}));
}

TEST(PartitionDescriptorTest, CarveIsHeadFullLinesAndTail) {
  PartitionDescriptor d(10);
  // Row-major box rows [2, 8) × cols [1, 5): cells 3..16 are the last line
  // of row 2, rows 3..5 whole, and one cell of row 6.
  ASSERT_TRUE(d.carve(Proc::R, boxOrder(Rect{2, 8, 1, 5}, true), 3, 14));
  ASSERT_EQ(d.rects().size(), 3u);
  EXPECT_EQ(d.rects()[0].rect, (Rect{2, 3, 4, 5}));
  EXPECT_EQ(d.rects()[1].rect, (Rect{3, 6, 1, 5}));
  EXPECT_EQ(d.rects()[2].rect, (Rect{6, 7, 1, 2}));
  EXPECT_EQ(d.lineCounts().count(Proc::R), 14);
}

TEST(PartitionDescriptorTest, CarveThatDoesNotFitChangesNothing) {
  PartitionDescriptor d(6);
  EXPECT_FALSE(d.carve(Proc::S, boxOrder(Rect{0, 2, 0, 3}, false), 2, 5));
  EXPECT_TRUE(d.rects().empty());
  EXPECT_TRUE(d.carve(Proc::S, boxOrder(Rect{0, 2, 0, 3}, false), 2, 0));
  EXPECT_TRUE(d.rects().empty());
}

// Random orders (either axis, either direction, reversed or not, over the
// grid minus an edge box) and random segments against painting the order's
// cells one by one.
TEST(PartitionDescriptorTest, CarveMatchesCellByCellPainting) {
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.range(1, 24));
    CellOrder order;
    if (rng.chance(0.5)) {
      LineRun run;
      run.rows = rng.chance(0.5);
      run.step = rng.chance(0.5) ? 1 : -1;
      run.first = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      run.lines = run.step > 0 ? n - run.first : run.first + 1;
      run.lo = static_cast<int>(rng.range(0, n - 1));
      run.hi = static_cast<int>(rng.range(run.lo, n));
      run.reverse = rng.chance(0.5);
      order.push_back(run);
    } else {
      const int side = static_cast<int>(rng.range(0, n - 1));
      const Rect hole = rng.chance(0.5) ? Rect{n - side, n, n - side, n}
                                        : Rect{0, side, 0, n};
      order = boxComplementOrder(n, hole, rng.chance(0.5));
    }
    const auto cells = orderCells(order);
    const auto size = static_cast<std::int64_t>(cells.size());
    const std::int64_t cursor = rng.range(0, size);
    const std::int64_t count = rng.range(0, size - cursor + 1);
    PartitionDescriptor d(n);
    const bool fits = d.carve(Proc::R, order, cursor, count);
    ASSERT_EQ(fits, cursor + count <= size || count == 0) << "trial " << trial;
    if (!fits) continue;
    Partition expect(n);
    for (std::int64_t k = cursor; k < cursor + count; ++k)
      expect.set(cells[static_cast<std::size_t>(k)].first,
                 cells[static_cast<std::size_t>(k)].second, Proc::R);
    const Partition got = d.toPartition();
    ASSERT_TRUE(got == expect) << "trial " << trial;
    ASSERT_NO_THROW(got.validateCounters()) << "trial " << trial;
    ASSERT_EQ(d.lineCounts().volumeOfCommunication(),
              expect.volumeOfCommunication());
    ASSERT_EQ(d.bandRuns(), bandRunsOfGrid(expect)) << "trial " << trial;
  }
}

TEST(PartitionDescriptorTest, BandRunsIgnoreHowRectanglesWereCut) {
  // One 4×6 R block, the same block as two stacked halves, and as two
  // side-by-side halves: one grid, one form.
  PartitionDescriptor whole(8), stacked(8), sideBySide(8);
  whole.add(Proc::R, Rect{2, 6, 1, 7});
  stacked.add(Proc::R, Rect{4, 6, 1, 7});
  stacked.add(Proc::R, Rect{2, 4, 1, 7});
  sideBySide.add(Proc::R, Rect{2, 6, 4, 7});
  sideBySide.add(Proc::R, Rect{2, 6, 1, 4});
  EXPECT_EQ(whole.bandRuns(), stacked.bandRuns());
  EXPECT_EQ(whole.bandRuns(), sideBySide.bandRuns());
  EXPECT_EQ(BandRunsHash{}(whole.bandRuns()),
            BandRunsHash{}(stacked.bandRuns()));
  EXPECT_EQ(whole.bandRuns(), bandRunsOfGrid(whole.toPartition()));

  PartitionDescriptor other(8);
  other.add(Proc::S, Rect{2, 6, 1, 7});
  EXPECT_NE(whole.bandRuns(), other.bandRuns());
}

TEST(PartitionDescriptorTest, RejectsOverlapsPOwnedAndOffGridRectangles) {
  PartitionDescriptor d(5);
  d.add(Proc::R, Rect{0, 2, 0, 2});
  EXPECT_THROW(d.add(Proc::S, Rect{1, 3, 1, 3}), CheckError);
  EXPECT_THROW(d.add(Proc::P, Rect{3, 4, 3, 4}), CheckError);
  EXPECT_THROW(d.add(Proc::S, Rect{3, 6, 3, 4}), CheckError);
  EXPECT_EQ(d.rects().size(), 1u);
}

TEST(PartitionDescriptorTest, ComplementOfInteriorHoleIsRejected) {
  EXPECT_THROW((void)boxComplementOrder(9, Rect{3, 5, 3, 5}, true), CheckError);
  EXPECT_NO_THROW((void)boxComplementOrder(9, Rect{3, 5, 0, 9}, true));
}

}  // namespace
}  // namespace pushpart
