#include "push/oriented.hpp"

#include <gtest/gtest.h>

#include "grid/builder.hpp"

namespace pushpart {
namespace {

// A fixed 4x4 grid for coordinate-mapping checks:
//   row0: P R P P
//   row1: P P P P
//   row2: P P S P
//   row3: P P P P
Partition makeGrid() {
  return fromAscii(
      "PRPP\n"
      "PPPP\n"
      "PPSP\n"
      "PPPP\n");
}

TEST(OrientedGridTest, DownIsIdentity) {
  auto q = makeGrid();
  OrientedGrid v(q, Direction::Down);
  EXPECT_EQ(v.at(0, 1), Proc::R);
  EXPECT_EQ(v.at(2, 2), Proc::S);
  EXPECT_EQ(v.rect(Proc::R), (Rect{0, 1, 1, 2}));
}

TEST(OrientedGridTest, UpFlipsRows) {
  auto q = makeGrid();
  OrientedGrid v(q, Direction::Up);
  // Physical row 0 becomes logical row 3.
  EXPECT_EQ(v.at(3, 1), Proc::R);
  EXPECT_EQ(v.at(1, 2), Proc::S);
  EXPECT_EQ(v.rect(Proc::R), (Rect{3, 4, 1, 2}));
  EXPECT_EQ(v.rect(Proc::S), (Rect{1, 2, 2, 3}));
}

TEST(OrientedGridTest, RightTransposes) {
  auto q = makeGrid();
  OrientedGrid v(q, Direction::Right);
  // Logical (r, c) = physical (c, r): R at physical (0,1) → logical (1,0).
  EXPECT_EQ(v.at(1, 0), Proc::R);
  EXPECT_EQ(v.at(2, 2), Proc::S);
  EXPECT_EQ(v.rect(Proc::R), (Rect{1, 2, 0, 1}));
}

TEST(OrientedGridTest, LeftTransposesAndFlips) {
  auto q = makeGrid();
  OrientedGrid v(q, Direction::Left);
  // Logical (r, c) = physical (c, n-1-r): R at physical (0,1) → r=2, c=0.
  EXPECT_EQ(v.at(2, 0), Proc::R);
  // S at physical (2,2) → r = n-1-2 = 1, c = 2.
  EXPECT_EQ(v.at(1, 2), Proc::S);
  EXPECT_EQ(v.rect(Proc::R), (Rect{2, 3, 0, 1}));
}

TEST(OrientedGridTest, RowColHasRespectsOrientation) {
  auto q = makeGrid();
  {
    OrientedGrid v(q, Direction::Right);
    // Logical row r == physical column r.
    EXPECT_TRUE(v.rowHas(Proc::R, 1));   // physical col 1 has R
    EXPECT_FALSE(v.rowHas(Proc::R, 0));
    EXPECT_TRUE(v.colHas(Proc::R, 0));   // physical row 0 has R
    EXPECT_FALSE(v.colHas(Proc::R, 1));
  }
  {
    OrientedGrid v(q, Direction::Up);
    EXPECT_TRUE(v.rowHas(Proc::S, 1));   // physical row 2 → logical 1
    EXPECT_TRUE(v.colHas(Proc::S, 2));
  }
}

TEST(OrientedGridTest, SetWritesThroughAndRecordsUndo) {
  auto q = makeGrid();
  std::vector<CellUndo<Proc>> undo;
  OrientedGrid v(q, Direction::Up);
  v.set(3, 1, Proc::S, undo);  // physical (0,1), previously R
  EXPECT_EQ(q.at(0, 1), Proc::S);
  ASSERT_EQ(undo.size(), 1u);
  EXPECT_EQ(undo[0].i, 0);
  EXPECT_EQ(undo[0].j, 1);
  EXPECT_EQ(undo[0].previous, Proc::R);
}

TEST(OrientedGridTest, SetSameOwnerRecordsNothing) {
  auto q = makeGrid();
  std::vector<CellUndo<Proc>> undo;
  OrientedGrid v(q, Direction::Down);
  v.set(0, 1, Proc::R, undo);
  EXPECT_TRUE(undo.empty());
}

TEST(OrientedGridTest, RollbackRestoresExactState) {
  auto q = makeGrid();
  const auto original = q;
  std::vector<CellUndo<Proc>> undo;
  OrientedGrid v(q, Direction::Left);
  v.set(0, 0, Proc::R, undo);
  v.set(1, 2, Proc::P, undo);
  v.set(3, 3, Proc::S, undo);
  EXPECT_FALSE(q == original);
  rollback(q, undo);
  EXPECT_EQ(q, original);
  q.validateCounters();
}

TEST(OrientedGridTest, EmptyRectStaysEmptyInAllOrientations) {
  Partition q(4);  // all P, no R anywhere
  for (Direction d : kAllDirections) {
    OrientedGrid v(q, d);
    EXPECT_TRUE(v.rect(Proc::R).isEmpty()) << directionName(d);
  }
}

TEST(OrientedGridTest, AllOrientationsCoverSameCells) {
  // Property: for every orientation, the multiset of owners over logical
  // coordinates equals the physical multiset.
  auto q = makeGrid();
  for (Direction d : kAllDirections) {
    OrientedGrid v(q, d);
    int r = 0, s = 0, p = 0;
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) {
        switch (v.at(i, j)) {
          case Proc::R: ++r; break;
          case Proc::S: ++s; break;
          case Proc::P: ++p; break;
        }
      }
    EXPECT_EQ(r, 1) << directionName(d);
    EXPECT_EQ(s, 1) << directionName(d);
    EXPECT_EQ(p, 14) << directionName(d);
  }
}

}  // namespace
}  // namespace pushpart
