#include "rle/rle_partition.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/fnv1a.hpp"
#include "support/scan.hpp"

namespace pushpart {

namespace {

/// Index of the run containing position `pos`: the first run whose exclusive
/// end exceeds it. Binary search keeps the alternating-owner worst case
/// (N runs per line) at O(log N).
std::size_t runIndex(const std::vector<RlePartition::Run>& runs, int pos) {
  const auto it = std::upper_bound(
      runs.begin(), runs.end(), pos,
      [](int p, const RlePartition::Run& r) { return p < r.end; });
  return static_cast<std::size_t>(it - runs.begin());
}

}  // namespace

RlePartition::RlePartition(int n, Proc fill) : n_(n) {
  PUSHPART_CHECK_MSG(n > 0, "RlePartition size must be positive, got " << n);
  const auto nz = static_cast<std::size_t>(n);
  rowRuns_.assign(nz, {Run{static_cast<std::int32_t>(n), fill}});
  colRuns_.assign(nz, {Run{static_cast<std::int32_t>(n), fill}});
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

RlePartition::RlePartition(const Partition& q) : n_(q.n()) {
  rebuildFrom(q);
}

void RlePartition::rebuildFrom(const Partition& q) {
  const int n = n_;
  const auto nz = static_cast<std::size_t>(n);
  rowRuns_.assign(nz, {});
  colRuns_.assign(nz, {});
  for (int i = 0; i < n; ++i) {
    auto& runs = rowRuns_[static_cast<std::size_t>(i)];
    Proc owner = q.at(i, 0);
    for (int j = 1; j < n; ++j) {
      const Proc next = q.at(i, j);
      if (next != owner) {
        runs.push_back({static_cast<std::int32_t>(j), owner});
        owner = next;
      }
    }
    runs.push_back({static_cast<std::int32_t>(n), owner});
  }
  for (int j = 0; j < n; ++j) {
    auto& runs = colRuns_[static_cast<std::size_t>(j)];
    Proc owner = q.at(0, j);
    for (int i = 1; i < n; ++i) {
      const Proc next = q.at(i, j);
      if (next != owner) {
        runs.push_back({static_cast<std::int32_t>(i), owner});
        owner = next;
      }
    }
    runs.push_back({static_cast<std::int32_t>(n), owner});
  }

  // Counters are recomputed from scratch rather than copied from q: the
  // converting constructor is a second, independent maintenance path that
  // the differential suite checks against the grid's.
  for (int x = 0; x < kNumProcs; ++x) {
    rowCnt_[static_cast<std::size_t>(x)].assign(nz, 0);
    colCnt_[static_cast<std::size_t>(x)].assign(nz, 0);
  }
  total_.fill(0);
  rowsUsed_.fill(0);
  colsUsed_.fill(0);
  ci_.assign(nz, 0);
  cj_.assign(nz, 0);
  for (int i = 0; i < n; ++i) {
    std::int32_t begin = 0;
    for (const Run& run : rowRuns_[static_cast<std::size_t>(i)]) {
      const auto slot = procSlot(run.owner);
      const std::int32_t len = run.end - begin;
      rowCnt_[slot][static_cast<std::size_t>(i)] += len;
      total_[slot] += len;
      begin = run.end;
    }
  }
  for (int j = 0; j < n; ++j) {
    std::int32_t begin = 0;
    for (const Run& run : colRuns_[static_cast<std::size_t>(j)]) {
      colCnt_[procSlot(run.owner)][static_cast<std::size_t>(j)] +=
          run.end - begin;
      begin = run.end;
    }
  }
  ciSum_ = 0;
  cjSum_ = 0;
  for (std::size_t i = 0; i < nz; ++i) {
    for (int x = 0; x < kNumProcs; ++x) {
      const auto xz = static_cast<std::size_t>(x);
      if (rowCnt_[xz][i] > 0) ++ci_[i];
      if (colCnt_[xz][i] > 0) ++cj_[i];
    }
    ciSum_ += ci_[i];
    cjSum_ += cj_[i];
  }
  for (int x = 0; x < kNumProcs; ++x) {
    const auto xz = static_cast<std::size_t>(x);
    for (std::size_t i = 0; i < nz; ++i) {
      if (rowCnt_[xz][i] > 0) ++rowsUsed_[xz];
      if (colCnt_[xz][i] > 0) ++colsUsed_[xz];
    }
  }
  rectDirty_.fill(true);
}

Partition RlePartition::toPartition() const {
  Partition out(n_, Proc::P);
  for (int i = 0; i < n_; ++i) {
    std::int32_t begin = 0;
    for (const Run& run : rowRuns_[static_cast<std::size_t>(i)]) {
      if (run.owner != Proc::P)
        for (std::int32_t j = begin; j < run.end; ++j) out.set(i, j, run.owner);
      begin = run.end;
    }
  }
  return out;
}

Proc RlePartition::at(int i, int j) const {
  const auto& runs = rowRuns_[static_cast<std::size_t>(i)];
  return runs[runIndex(runs, j)].owner;
}

RlePartition::Run RlePartition::rowRunAt(int i, int j) const {
  const auto& runs = rowRuns_[static_cast<std::size_t>(i)];
  return runs[runIndex(runs, j)];
}

RlePartition::Run RlePartition::colRunAt(int j, int i) const {
  const auto& runs = colRuns_[static_cast<std::size_t>(j)];
  return runs[runIndex(runs, i)];
}

std::int64_t RlePartition::totalRuns() const {
  std::int64_t total = 0;
  for (const auto& runs : rowRuns_)
    total += static_cast<std::int64_t>(runs.size());
  return total;
}

void RlePartition::lineSet(std::vector<Run>& runs, int pos, Proc p) {
  const std::size_t idx = runIndex(runs, pos);
  const Run run = runs[idx];
  const std::int32_t begin = idx > 0 ? runs[idx - 1].end : 0;
  const bool atBegin = pos == begin;
  const bool atEnd = pos == run.end - 1;
  const auto pos32 = static_cast<std::int32_t>(pos);

  if (atBegin && atEnd) {
    // A length-1 run flips owner entirely; merging with equal-owner
    // neighbours restores maximality. (Both neighbours differ from the old
    // owner by invariant, so no further merges can cascade.)
    const bool leftMerges = idx > 0 && runs[idx - 1].owner == p;
    const bool rightMerges = idx + 1 < runs.size() && runs[idx + 1].owner == p;
    const auto it = runs.begin() + static_cast<std::ptrdiff_t>(idx);
    if (leftMerges && rightMerges) {
      runs.erase(it - 1, it + 1);  // right neighbour absorbs all three
    } else if (leftMerges) {
      runs[idx - 1].end = run.end;
      runs.erase(it);
    } else if (rightMerges) {
      runs.erase(it);  // right neighbour's implicit begin extends left
    } else {
      runs[idx].owner = p;
    }
  } else if (atBegin) {
    if (idx > 0 && runs[idx - 1].owner == p) {
      runs[idx - 1].end = pos32 + 1;  // left neighbour grows over pos
    } else {
      runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(idx),
                  Run{pos32 + 1, p});
    }
  } else if (atEnd) {
    runs[idx].end = pos32;  // shrink; pos now belongs to whatever follows
    if (!(idx + 1 < runs.size() && runs[idx + 1].owner == p))
      runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                  Run{run.end, p});
  } else {
    // Interior split: [begin,pos) old, [pos,pos+1) p, [pos+1,end) old.
    runs[idx].end = pos32;
    const Run tail[2] = {Run{pos32 + 1, p}, Run{run.end, run.owner}};
    runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(idx) + 1, tail,
                tail + 2);
  }
}

void RlePartition::set(int i, int j, Proc p) {
  PUSHPART_CHECK_MSG(i >= 0 && i < n_ && j >= 0 && j < n_,
                     "cell (" << i << "," << j << ") out of range for n=" << n_);
  const Proc old = at(i, j);
  if (old == p) return;
  lineSet(rowRuns_[static_cast<std::size_t>(i)], j, p);
  lineSet(colRuns_[static_cast<std::size_t>(j)], i, p);

  const auto oi = static_cast<std::size_t>(procIndex(old));
  const auto pi = static_cast<std::size_t>(procIndex(p));
  const auto iz = static_cast<std::size_t>(i);
  const auto jz = static_cast<std::size_t>(j);

  // Line counters for the departing processor.
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

  // Line counters for the arriving processor.
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

void RlePartition::swapCells(int i1, int j1, int i2, int j2) {
  const Proc a = at(i1, j1);
  const Proc b = at(i2, j2);
  if (a == b) return;
  set(i1, j1, b);
  set(i2, j2, a);
}

const Rect& RlePartition::enclosingRect(Proc p) const {
  const auto pi = static_cast<std::size_t>(procIndex(p));
  if (rectDirty_[pi]) recomputeRect(p);
  return rect_[pi];
}

void RlePartition::recomputeRect(Proc p) const {
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

std::uint64_t RlePartition::hash() const {
  // FNV-1a over the row runs. The run form is canonical, so equal states
  // hash equally; collisions only risk a premature cycle verdict in the
  // DFA, never a correctness violation.
  Fnv1a h;
  for (const auto& runs : rowRuns_) {
    for (const Run& run : runs) {
      const auto end = static_cast<std::uint32_t>(run.end);
      h.add(static_cast<std::uint8_t>(end));
      h.add(static_cast<std::uint8_t>(end >> 8));
      h.add(static_cast<std::uint8_t>(end >> 16));
      h.add(static_cast<std::uint8_t>(run.owner));
    }
  }
  return h.value;
}

bool RlePartition::sameOwners(const Partition& q) const {
  if (q.n() != n_) return false;
  for (int i = 0; i < n_; ++i) {
    std::int32_t begin = 0;
    for (const Run& run : rowRuns_[static_cast<std::size_t>(i)]) {
      for (std::int32_t j = begin; j < run.end; ++j)
        if (q.at(i, j) != run.owner) return false;
      begin = run.end;
    }
  }
  return true;
}

void RlePartition::validateCounters() const {
  const auto nz = static_cast<std::size_t>(n_);
  PUSHPART_CHECK(rowRuns_.size() == nz && colRuns_.size() == nz);

  // Normalisation: every line tiled by strictly increasing maximal runs.
  const auto checkLine = [this](const std::vector<Run>& runs, const char* kind,
                                std::size_t line) {
    PUSHPART_CHECK_MSG(!runs.empty(), kind << " " << line << " has no runs");
    std::int32_t prev = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      PUSHPART_CHECK_MSG(runs[r].end > prev,
                         kind << " " << line << " run " << r
                              << " is empty or out of order");
      PUSHPART_CHECK_MSG(
          r == 0 || runs[r].owner != runs[r - 1].owner,
          kind << " " << line << " run " << r << " is not maximal");
      prev = runs[r].end;
    }
    PUSHPART_CHECK_MSG(prev == n_,
                       kind << " " << line << " does not cover [0,n)");
  };
  for (std::size_t i = 0; i < nz; ++i) checkLine(rowRuns_[i], "row", i);
  for (std::size_t j = 0; j < nz; ++j) checkLine(colRuns_[j], "col", j);

  // The column representation must describe the same owners as the rows.
  for (int j = 0; j < n_; ++j) {
    std::int32_t begin = 0;
    for (const Run& run : colRuns_[static_cast<std::size_t>(j)]) {
      for (std::int32_t i = begin; i < run.end; ++i)
        PUSHPART_CHECK_MSG(at(i, j) == run.owner,
                           "row/col run disagreement at (" << i << "," << j
                                                           << ")");
      begin = run.end;
    }
  }

  // Full recount of every incremental counter.
  std::array<std::vector<std::int32_t>, kNumProcs> rowCnt, colCnt;
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
    PUSHPART_CHECK_MSG(rowsUsed == rowsUsed_[xz],
                       "rowsUsed mismatch proc=" << x);
    PUSHPART_CHECK_MSG(colsUsed == colsUsed_[xz],
                       "colsUsed mismatch proc=" << x);
  }
}

}  // namespace pushpart
