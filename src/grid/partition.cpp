#include "grid/partition.hpp"

#include "support/check.hpp"
#include "support/fnv1a.hpp"
#include "support/scan.hpp"

namespace pushpart {

Partition::Partition(int n, Proc fill) : n_(n) {
  PUSHPART_CHECK_MSG(n > 0, "Partition size must be positive, got " << n);
  const auto nz = static_cast<std::size_t>(n);
  cells_.assign(nz * nz, fill);
  for (int x = 0; x < kNumProcs; ++x) {
    rowCnt_[static_cast<std::size_t>(x)].assign(nz, 0);
    colCnt_[static_cast<std::size_t>(x)].assign(nz, 0);
  }
  const auto fi = static_cast<std::size_t>(procIndex(fill));
  rowCnt_[fi].assign(nz, n);
  colCnt_[fi].assign(nz, n);
  total_[fi] = static_cast<std::int64_t>(n) * n;
  rowsUsed_[fi] = n;
  colsUsed_[fi] = n;
  ci_.assign(nz, 1);
  cj_.assign(nz, 1);
  ciSum_ = n;
  cjSum_ = n;
  rectDirty_.fill(true);
}

void Partition::set(int i, int j, Proc p) {
  PUSHPART_CHECK_MSG(i >= 0 && i < n_ && j >= 0 && j < n_,
                     "cell (" << i << "," << j << ") out of range for n=" << n_);
  const std::size_t idx = index(i, j);
  const Proc old = cells_[idx];
  if (old == p) return;
  cells_[idx] = p;

  const auto oi = static_cast<std::size_t>(procIndex(old));
  const auto pi = static_cast<std::size_t>(procIndex(p));
  const auto iz = static_cast<std::size_t>(i);
  const auto jz = static_cast<std::size_t>(j);

  // Row counters for the departing processor.
  if (--rowCnt_[oi][iz] == 0) {
    --rowsUsed_[oi];
    --ci_[iz];
    --ciSum_;
  }
  if (--colCnt_[oi][jz] == 0) {
    --colsUsed_[oi];
    --cj_[jz];
    --cjSum_;
  }
  --total_[oi];

  // Row counters for the arriving processor.
  if (rowCnt_[pi][iz]++ == 0) {
    ++rowsUsed_[pi];
    ++ci_[iz];
    ++ciSum_;
  }
  if (colCnt_[pi][jz]++ == 0) {
    ++colsUsed_[pi];
    ++cj_[jz];
    ++cjSum_;
  }
  ++total_[pi];

  rectDirty_[oi] = true;
  rectDirty_[pi] = true;
}

void Partition::swapCells(int i1, int j1, int i2, int j2) {
  const Proc a = at(i1, j1);
  const Proc b = at(i2, j2);
  if (a == b) return;
  set(i1, j1, b);
  set(i2, j2, a);
}

std::int64_t Partition::volumeOfCommunication() const {
  // Eq. 1 with the sums of c_i and c_j kept incrementally:
  //   Σ_i N(c_i − 1) = N·(Σ c_i − N).
  return static_cast<std::int64_t>(n_) * (ciSum_ - n_) +
         static_cast<std::int64_t>(n_) * (cjSum_ - n_);
}

const Rect& Partition::enclosingRect(Proc p) const {
  const auto pi = static_cast<std::size_t>(procIndex(p));
  if (rectDirty_[pi]) recomputeRect(p);
  return rect_[pi];
}

void Partition::recomputeRect(Proc p) const {
  const auto pi = static_cast<std::size_t>(procIndex(p));
  rectDirty_[pi] = false;
  if (total_[pi] == 0) {
    rect_[pi] = Rect::empty();
    return;
  }
  // total_ > 0 here, so the scans cannot come back empty.
  const auto& rows = rowCnt_[pi];
  const auto& cols = colCnt_[pi];
  const int top = static_cast<int>(firstNonZero(rows));
  const int bottom = static_cast<int>(lastNonZero(rows));
  const int left = static_cast<int>(firstNonZero(cols));
  const int right = static_cast<int>(lastNonZero(cols));
  rect_[pi] = Rect{top, bottom + 1, left, right + 1};
}

std::uint64_t Partition::hash() const {
  // FNV-1a over the raw cell bytes; collisions only risk a premature cycle
  // verdict in the DFA, never a correctness violation.
  Fnv1a h;
  for (Proc c : cells_) h.add(static_cast<std::uint8_t>(c));
  return h.value;
}

void Partition::validateCounters() const {
  std::array<std::vector<std::int32_t>, kNumProcs> rowCnt, colCnt;
  const auto nz = static_cast<std::size_t>(n_);
  for (auto& v : rowCnt) v.assign(nz, 0);
  for (auto& v : colCnt) v.assign(nz, 0);
  std::array<std::int64_t, kNumProcs> total{};
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j) {
      const auto x = static_cast<std::size_t>(procIndex(at(i, j)));
      ++rowCnt[x][static_cast<std::size_t>(i)];
      ++colCnt[x][static_cast<std::size_t>(j)];
      ++total[x];
    }

  std::int64_t ciSum = 0, cjSum = 0;
  for (int i = 0; i < n_; ++i) {
    int ci = 0, cj = 0;
    for (int x = 0; x < kNumProcs; ++x) {
      const auto xz = static_cast<std::size_t>(x);
      const auto iz = static_cast<std::size_t>(i);
      PUSHPART_CHECK_MSG(rowCnt[xz][iz] == rowCnt_[xz][iz],
                         "rowCnt mismatch proc=" << x << " row=" << i);
      PUSHPART_CHECK_MSG(colCnt[xz][iz] == colCnt_[xz][iz],
                         "colCnt mismatch proc=" << x << " col=" << i);
      if (rowCnt[xz][iz] > 0) ++ci;
      if (colCnt[xz][iz] > 0) ++cj;
    }
    PUSHPART_CHECK_MSG(ci == procsInRow(i), "c_i mismatch at row " << i);
    PUSHPART_CHECK_MSG(cj == procsInCol(i), "c_j mismatch at col " << i);
    ciSum += ci;
    cjSum += cj;
  }
  PUSHPART_CHECK(ciSum == ciSum_);
  PUSHPART_CHECK(cjSum == cjSum_);

  for (int x = 0; x < kNumProcs; ++x) {
    const auto xz = static_cast<std::size_t>(x);
    PUSHPART_CHECK_MSG(total[xz] == total_[xz], "total mismatch proc=" << x);
    int rowsUsed = 0, colsUsed = 0;
    for (std::size_t i = 0; i < nz; ++i) {
      if (rowCnt[xz][i] > 0) ++rowsUsed;
      if (colCnt[xz][i] > 0) ++colsUsed;
    }
    PUSHPART_CHECK_MSG(rowsUsed == rowsUsed_[xz], "rowsUsed mismatch proc=" << x);
    PUSHPART_CHECK_MSG(colsUsed == colsUsed_[xz], "colsUsed mismatch proc=" << x);
  }
}

}  // namespace pushpart
