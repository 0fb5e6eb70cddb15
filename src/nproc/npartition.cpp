#include "nproc/npartition.hpp"

#include "support/check.hpp"
#include "support/fnv1a.hpp"

namespace pushpart {

NPartition::NPartition(int n, int procs) : n_(n), procs_(procs) {
  PUSHPART_CHECK_MSG(n > 0, "NPartition size must be positive, got " << n);
  PUSHPART_CHECK_MSG(procs >= 2 && procs <= 64,
                     "NPartition supports 2..64 processors, got " << procs);
  const auto nz = static_cast<std::size_t>(n);
  const auto kz = static_cast<std::size_t>(procs);
  cells_.assign(nz * nz, 0);
  rowCnt_.assign(kz, std::vector<std::int32_t>(nz, 0));
  colCnt_.assign(kz, std::vector<std::int32_t>(nz, 0));
  total_.assign(kz, 0);
  rowsUsed_.assign(kz, 0);
  colsUsed_.assign(kz, 0);
  rowCnt_[0].assign(nz, n);
  colCnt_[0].assign(nz, n);
  total_[0] = static_cast<std::int64_t>(n) * n;
  rowsUsed_[0] = n;
  colsUsed_[0] = n;
  ci_.assign(nz, 1);
  cj_.assign(nz, 1);
  ciSum_ = n;
  cjSum_ = n;
}

void NPartition::set(int i, int j, NProcId p) {
  PUSHPART_CHECK_MSG(i >= 0 && i < n_ && j >= 0 && j < n_,
                     "cell (" << i << "," << j << ") out of range, n=" << n_);
  PUSHPART_CHECK_MSG(p >= 0 && p < procs_,
                     "processor " << p << " out of range, k=" << procs_);
  const std::size_t idx = index(i, j);
  const NProcId old = cells_[idx];
  if (old == p) return;
  cells_[idx] = p;

  const auto oi = slot(old);
  const auto pi = slot(p);
  const auto iz = static_cast<std::size_t>(i);
  const auto jz = static_cast<std::size_t>(j);

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
}

std::int64_t NPartition::volumeOfCommunication() const {
  return static_cast<std::int64_t>(n_) * (ciSum_ - n_) +
         static_cast<std::int64_t>(n_) * (cjSum_ - n_);
}

Rect NPartition::enclosingRect(NProcId p) const {
  if (total_[slot(p)] == 0) return Rect::empty();
  const auto& rows = rowCnt_[slot(p)];
  const auto& cols = colCnt_[slot(p)];
  int top = 0;
  while (rows[static_cast<std::size_t>(top)] == 0) ++top;
  int bottom = n_ - 1;
  while (rows[static_cast<std::size_t>(bottom)] == 0) --bottom;
  int left = 0;
  while (cols[static_cast<std::size_t>(left)] == 0) ++left;
  int right = n_ - 1;
  while (cols[static_cast<std::size_t>(right)] == 0) --right;
  return Rect{top, bottom + 1, left, right + 1};
}

std::uint64_t NPartition::hash() const {
  Fnv1a h;  // indices < 64 (constructor bound) each fit one byte
  for (NProcId c : cells_) h.add(static_cast<std::uint8_t>(c));
  return h.value;
}

void NPartition::validateCounters() const {
  const auto nz = static_cast<std::size_t>(n_);
  const auto kz = static_cast<std::size_t>(procs_);
  std::vector<std::vector<std::int32_t>> rowCnt(
      kz, std::vector<std::int32_t>(nz, 0));
  std::vector<std::vector<std::int32_t>> colCnt(
      kz, std::vector<std::int32_t>(nz, 0));
  std::vector<std::int64_t> total(kz, 0);
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j) {
      const auto x = slot(at(i, j));
      ++rowCnt[x][static_cast<std::size_t>(i)];
      ++colCnt[x][static_cast<std::size_t>(j)];
      ++total[x];
    }
  std::int64_t ciSum = 0, cjSum = 0;
  for (std::size_t i = 0; i < nz; ++i) {
    int ci = 0, cj = 0;
    for (std::size_t x = 0; x < kz; ++x) {
      PUSHPART_CHECK(rowCnt[x][i] == rowCnt_[x][i]);
      PUSHPART_CHECK(colCnt[x][i] == colCnt_[x][i]);
      if (rowCnt[x][i] > 0) ++ci;
      if (colCnt[x][i] > 0) ++cj;
    }
    PUSHPART_CHECK(ci == ci_[i]);
    PUSHPART_CHECK(cj == cj_[i]);
    ciSum += ci;
    cjSum += cj;
  }
  PUSHPART_CHECK(ciSum == ciSum_);
  PUSHPART_CHECK(cjSum == cjSum_);
  for (std::size_t x = 0; x < kz; ++x) {
    PUSHPART_CHECK(total[x] == total_[x]);
    int ru = 0, cu = 0;
    for (std::size_t i = 0; i < nz; ++i) {
      if (rowCnt[x][i] > 0) ++ru;
      if (colCnt[x][i] > 0) ++cu;
    }
    PUSHPART_CHECK(ru == rowsUsed_[x]);
    PUSHPART_CHECK(cu == colsUsed_[x]);
  }
}

}  // namespace pushpart
