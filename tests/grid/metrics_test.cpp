#include "grid/metrics.hpp"

#include <gtest/gtest.h>

#include "grid/builder.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

TEST(ProcCommTest, UniformGridSendsNothingForAbsentProcs) {
  Partition q(5);
  const auto r = procComm(q, Proc::R);
  EXPECT_EQ(r.elements, 0);
  EXPECT_EQ(r.rowsUsed, 0);
  EXPECT_EQ(r.sendVolume, 0);
  const auto p = procComm(q, Proc::P);
  EXPECT_EQ(p.elements, 25);
  // P owns everything: sends N·N + N·N − N² = N² (it must broadcast pivots to
  // nobody in a 1-proc layout; Eq. 6 counts row+col coverage minus owned).
  EXPECT_EQ(p.sendVolume, 25);
}

TEST(ProcCommTest, SingleCellProcessor) {
  Partition q(5);
  q.set(2, 3, Proc::R);
  const auto r = procComm(q, Proc::R);
  EXPECT_EQ(r.elements, 1);
  EXPECT_EQ(r.rowsUsed, 1);
  EXPECT_EQ(r.colsUsed, 1);
  // d_R numerator: N·1 + N·1 − 1 = 9.
  EXPECT_EQ(r.sendVolume, 9);
}

TEST(ProcCommTest, RectangularBlock) {
  // R owns rows 0..1 x cols 0..2 of a 6x6 grid.
  Partition q(6);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) q.set(i, j, Proc::R);
  const auto r = procComm(q, Proc::R);
  EXPECT_EQ(r.elements, 6);
  EXPECT_EQ(r.rowsUsed, 2);
  EXPECT_EQ(r.colsUsed, 3);
  EXPECT_EQ(r.sendVolume, 6 * 2 + 6 * 3 - 6);
}

TEST(ProcCommTest, AllProcCommIndexedByProc) {
  Partition q(4);
  q.set(0, 0, Proc::R);
  q.set(3, 3, Proc::S);
  const auto all = allProcComm(q);
  EXPECT_EQ(all[procIndex(Proc::R)].elements, 1);
  EXPECT_EQ(all[procIndex(Proc::S)].elements, 1);
  EXPECT_EQ(all[procIndex(Proc::P)].elements, 14);
}

TEST(VoCTest, FreeFunctionMatchesMethod) {
  Rng rng(8);
  const auto q = randomPartition(30, Ratio{4, 2, 1}, rng);
  EXPECT_EQ(volumeOfCommunication(q), q.volumeOfCommunication());
}

TEST(VoCTest, ColumnStripesPartition) {
  // Vertical stripes: P | R | S, each 2 columns of a 6x6 grid.
  Partition q(6);
  for (int i = 0; i < 6; ++i) {
    q.set(i, 2, Proc::R);
    q.set(i, 3, Proc::R);
    q.set(i, 4, Proc::S);
    q.set(i, 5, Proc::S);
  }
  // Every row has 3 owners: Σ_i N(c_i−1) = 6·6·2 = 72.
  // Every column has 1 owner: 0.
  EXPECT_EQ(q.volumeOfCommunication(), 72);
}

TEST(OverlapTest, FullyOwnedGridOverlapsEverything) {
  Partition q(4);  // all P
  EXPECT_EQ(overlapElements(q, Proc::P), 16);
  EXPECT_EQ(overlapFlopSteps(q, Proc::P), 4L * 4 * 4);
  EXPECT_EQ(overlapElements(q, Proc::R), 0);
  EXPECT_EQ(overlapFlopSteps(q, Proc::R), 0);
}

/// overlapElements by its definition: cells (i, j) whose row i and column j
/// are both wholly x's, counted one by one.
std::int64_t overlapElementsByCell(const Partition& q, Proc x) {
  std::int64_t total = 0;
  for (int i = 0; i < q.n(); ++i)
    for (int j = 0; j < q.n(); ++j)
      if (q.rowCount(x, i) == q.n() && q.colCount(x, j) == q.n()) ++total;
  return total;
}

TEST(OverlapTest, ProductOfFullLinesMatchesCellCount) {
  const int n = 60;
  std::vector<Partition> grids = {Partition(n, Proc::P), Partition(n, Proc::R)};
  for (const Ratio& ratio : {Ratio{5, 2, 1}, Ratio{10, 1, 1}})
    for (const CandidateShape shape : kAllCandidates)
      grids.push_back(makeCandidate(shape, n, ratio));
  for (const Partition& q : grids)
    for (const Proc x : kAllProcs)
      EXPECT_EQ(overlapElements(q, x), overlapElementsByCell(q, x))
          << procName(x);
  EXPECT_EQ(overlapElements(grids[0], Proc::P), n * n);
  EXPECT_EQ(overlapElements(grids[1], Proc::R), n * n);
  EXPECT_EQ(overlapElements(grids[1], Proc::P), 0);
  // Square-Corner leaves P whole rows and columns between the two squares.
  EXPECT_GT(overlapElements(grids[2], Proc::P), 0);
}

TEST(OverlapTest, StripesGiveNoFullyLocalElements) {
  // Column stripes: no processor owns a full row, so nobody can compute any
  // C element entirely locally.
  Partition q(6);
  for (int i = 0; i < 6; ++i)
    for (int j = 3; j < 6; ++j) q.set(i, j, Proc::R);
  EXPECT_EQ(overlapElements(q, Proc::P), 0);
  EXPECT_EQ(overlapElements(q, Proc::R), 0);
  // But per-k partial overlap exists: for C(i,j) owned by R (j>=3),
  // pivots k in 3..5 have A(i,k) and B(k,j) R-owned.
  // #owned C cells = 18, each with 3 local pivots → 54.
  EXPECT_EQ(overlapFlopSteps(q, Proc::R), 54);
  // P symmetric: 18 cells × 3 local pivots.
  EXPECT_EQ(overlapFlopSteps(q, Proc::P), 54);
}

TEST(OverlapTest, HorizontalBandIsFullyLocalInsideItself) {
  // R owns full rows 0..2 of an 8x8 grid. For C(i,j) with i<3, pivot row i is
  // fully R's, but pivot column j is mixed → not fully local.
  Partition q(8);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 8; ++j) q.set(i, j, Proc::R);
  EXPECT_EQ(overlapElements(q, Proc::R), 0);
  // Per-k: C(i,j), i<3: pivots k<3 have A(i,k) (row i all R) and B(k,j)
  // (row k all R) → 3 local pivots each. 24 cells × 3 = 72.
  EXPECT_EQ(overlapFlopSteps(q, Proc::R), 72);
}

TEST(OverlapTest, SquareCornerOverlapCounts) {
  // S owns the 2x2 bottom-right corner of a 4x4 grid; P the rest.
  Partition q(4);
  for (int i = 2; i < 4; ++i)
    for (int j = 2; j < 4; ++j) q.set(i, j, Proc::S);
  // S: C(i,j) in corner; local pivots k ∈ {2,3} when A(i,k),B(k,j) S-owned →
  // A(i,k): k∈{2,3} (row i cols 2,3 are S); B(k,j): k∈{2,3}. So 2 each → 4
  // cells × 2 = 8.
  EXPECT_EQ(overlapFlopSteps(q, Proc::S), 8);
  // P: C(i,j) with i<2 or j<2. For i<2,j<2: pivots k∈{0,1} fully P plus
  // k∈{2,3}: A(i,k) P? row i<2, col k≥2 is P → yes; B(k,j): row k≥2, col j<2
  // is P → yes. So 4 local pivots. For i<2,j≥2: A(i,k) always P; B(k,j) P only
  // k<2 → 2. Symmetric for i≥2,j<2.
  // Total: 4 cells×4 + 4×2 + 4×2 = 32.
  EXPECT_EQ(overlapFlopSteps(q, Proc::P), 32);
}

TEST(OverlapTest, FlopStepsNeverExceedCubeShare) {
  Rng rng(5);
  const auto q = randomPartition(24, Ratio{3, 1, 1}, rng);
  for (Proc x : kAllProcs) {
    const auto steps = overlapFlopSteps(q, x);
    EXPECT_GE(steps, 0);
    EXPECT_LE(steps, q.count(x) * q.n());
  }
}

}  // namespace
}  // namespace pushpart
