#include "grid/descriptor.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/fnv1a.hpp"

namespace pushpart {

namespace {

LineRun lineRun(bool rows, int first, int lines, int lo, int hi) {
  return LineRun{rows, first, 1, lines, lo, hi, false};
}

}  // namespace

CellOrder boxOrder(const Rect& box, bool rowMajor) {
  if (rowMajor)
    return {lineRun(true, box.rowBegin, box.height(), box.colBegin,
                    box.colEnd)};
  return {lineRun(false, box.colBegin, box.width(), box.rowBegin, box.rowEnd)};
}

CellOrder boxComplementOrder(int n, const Rect& hole, bool rowMajor) {
  if (hole.isEmpty()) return boxOrder(Rect{0, n, 0, n}, rowMajor);
  // Extents of the hole along the scanned lines and across them.
  const int lineLo = rowMajor ? hole.rowBegin : hole.colBegin;
  const int lineHi = rowMajor ? hole.rowEnd : hole.colEnd;
  const int crossLo = rowMajor ? hole.colBegin : hole.rowBegin;
  const int crossHi = rowMajor ? hole.colEnd : hole.rowEnd;
  PUSHPART_CHECK_MSG(crossLo == 0 || crossHi == n,
                     "hole " << hole << " splits its lines in two");
  const int spanLo = crossLo == 0 ? crossHi : 0;
  const int spanHi = crossLo == 0 ? n : crossLo;
  CellOrder order;
  const auto push = [&](int first, int last, int lo, int hi) {
    if (last > first)
      order.push_back(lineRun(rowMajor, first, last - first, lo, hi));
  };
  push(0, lineLo, 0, n);
  push(lineLo, lineHi, spanLo, spanHi);
  push(lineHi, n, 0, n);
  return order;
}

PartitionDescriptor::PartitionDescriptor(int n) : n_(n) {
  PUSHPART_CHECK_MSG(n > 0, "Partition size must be positive, got " << n);
}

void PartitionDescriptor::add(Proc x, const Rect& r) {
  PUSHPART_CHECK_MSG(x != Proc::P, "descriptor rectangles belong to R or S");
  PUSHPART_CHECK_MSG(!r.isEmpty() && r.rowBegin >= 0 && r.colBegin >= 0 &&
                         r.rowEnd <= n_ && r.colEnd <= n_,
                     "rectangle " << r << " off the " << n_ << "-grid");
  for (const OwnedRect& o : rects_)
    PUSHPART_CHECK_MSG(!o.rect.overlaps(r),
                       "rectangle " << r << " overlaps " << o.rect);
  rects_.push_back({x, r});
}

bool PartitionDescriptor::carve(Proc x, const CellOrder& order,
                                std::int64_t cursor, std::int64_t count) {
  if (count <= 0) return true;
  const std::int64_t begin = cursor;
  const std::int64_t end = cursor + count;
  std::int64_t size = 0;
  for (const LineRun& run : order) size += run.cells();
  if (end > size) return false;

  std::int64_t offset = 0;  // cells of the order before `run`
  for (const LineRun& run : order) {
    const std::int64_t cells = run.cells();
    const std::int64_t a = std::max(begin, offset) - offset;
    const std::int64_t b = std::min(end, offset + cells) - offset;
    offset += cells;
    if (a >= b) continue;
    const std::int64_t len = run.hi - run.lo;
    // Lines [k0, k1) of the run, cross positions [o0, o1) in visit order.
    const auto piece = [&](std::int64_t k0, std::int64_t k1, std::int64_t o0,
                           std::int64_t o1) {
      if (k1 <= k0 || o1 <= o0) return;
      const int f = run.first;
      const int lineLo = run.step > 0 ? f + static_cast<int>(k0)
                                      : f - static_cast<int>(k1) + 1;
      const int lineHi = run.step > 0 ? f + static_cast<int>(k1)
                                      : f - static_cast<int>(k0) + 1;
      const int crossLo = run.reverse ? run.hi - static_cast<int>(o1)
                                      : run.lo + static_cast<int>(o0);
      const int crossHi = run.reverse ? run.hi - static_cast<int>(o0)
                                      : run.lo + static_cast<int>(o1);
      add(x, run.rows ? Rect{lineLo, lineHi, crossLo, crossHi}
                      : Rect{crossLo, crossHi, lineLo, lineHi});
    };
    std::int64_t k0 = a / len;
    const std::int64_t o0 = a % len;
    const std::int64_t k1 = b / len;
    const std::int64_t o1 = b % len;
    if (k0 == k1) {
      piece(k0, k0 + 1, o0, o1);
      continue;
    }
    if (o0 > 0) {
      piece(k0, k0 + 1, o0, len);
      ++k0;
    }
    piece(k0, k1, 0, len);
    piece(k1, k1 + 1, 0, o1);
  }
  return true;
}

Partition PartitionDescriptor::toPartition() const {
  Partition q(n_, Proc::P);
  for (const auto& [owner, r] : rects_)
    for (int i = r.rowBegin; i < r.rowEnd; ++i)
      std::fill_n(q.cells_.begin() +
                      static_cast<std::ptrdiff_t>(q.index(i, r.colBegin)),
                  r.width(), owner);
  // Every counter Partition maintains incrementally, straight from the line
  // counts (the enclosing rectangles stay dirty from the constructor).
  const LineCounts lc = lineCounts();
  for (const Proc x : kAllProcs) {
    const std::size_t xs = procSlot(x);
    q.total_[xs] = lc.count(x);
    q.rowsUsed_[xs] = 0;
    q.colsUsed_[xs] = 0;
    for (int i = 0; i < n_; ++i) {
      const auto iz = static_cast<std::size_t>(i);
      q.rowCnt_[xs][iz] = lc.rowCount(x, i);
      q.colCnt_[xs][iz] = lc.colCount(x, i);
      q.rowsUsed_[xs] += lc.rowHas(x, i);
      q.colsUsed_[xs] += lc.colHas(x, i);
    }
  }
  for (int i = 0; i < n_; ++i) {
    q.ci_[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(lc.procsInRow(i));
    q.cj_[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(lc.procsInCol(i));
  }
  q.ciSum_ = lc.ciSum_;
  q.cjSum_ = lc.cjSum_;
  return q;
}

LineCounts PartitionDescriptor::lineCounts() const {
  LineCounts lc;
  lc.n_ = n_;
  lc.cnt_.assign(2 * kNumProcs * static_cast<std::size_t>(n_), 0);
  // R and S counts by difference arrays (a rectangle adds its width to each
  // of its rows from rowBegin on and takes it back at rowEnd), then prefix
  // sums; P owns whatever R and S leave of each line.
  for (const auto& [owner, r] : rects_) {
    lc.cnt_[lc.slot(owner, 0, r.rowBegin)] += r.width();
    if (r.rowEnd < n_) lc.cnt_[lc.slot(owner, 0, r.rowEnd)] -= r.width();
    lc.cnt_[lc.slot(owner, 1, r.colBegin)] += r.height();
    if (r.colEnd < n_) lc.cnt_[lc.slot(owner, 1, r.colEnd)] -= r.height();
    lc.total_[procSlot(owner)] += r.area();
  }
  for (int axis = 0; axis < 2; ++axis) {
    std::int32_t* rs = &lc.cnt_[lc.slot(Proc::R, axis, 0)];
    std::int32_t* ss = &lc.cnt_[lc.slot(Proc::S, axis, 0)];
    std::int32_t* ps = &lc.cnt_[lc.slot(Proc::P, axis, 0)];
    std::int64_t sum = 0;
    for (int i = 0; i < n_; ++i) {
      if (i > 0) {
        rs[i] += rs[i - 1];
        ss[i] += ss[i - 1];
      }
      ps[i] = n_ - rs[i] - ss[i];
      sum += (rs[i] > 0) + (ss[i] > 0) + (ps[i] > 0);
    }
    (axis == 0 ? lc.ciSum_ : lc.cjSum_) = sum;
  }
  lc.total_[procSlot(Proc::P)] = static_cast<std::int64_t>(n_) * n_ -
                                 lc.total_[procSlot(Proc::R)] -
                                 lc.total_[procSlot(Proc::S)];
  return lc;
}

std::vector<std::int32_t> PartitionDescriptor::bandRuns() const {
  // Row structure only changes at rectangle edges, so each interval between
  // consecutive cuts has one run list.
  std::vector<int> cuts = {0, n_};
  for (const OwnedRect& o : rects_) {
    cuts.push_back(o.rect.rowBegin);
    cuts.push_back(o.rect.rowEnd);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<std::int32_t> form;
  std::vector<std::int32_t> prev, runs;
  std::vector<const OwnedRect*> across;
  std::int32_t height = 0;
  const auto flush = [&] {
    if (height == 0) return;
    form.push_back(height);
    form.push_back(static_cast<std::int32_t>(prev.size() / 2));
    form.insert(form.end(), prev.begin(), prev.end());
  };
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const int row = cuts[k];
    across.clear();
    for (const OwnedRect& o : rects_)
      if (o.rect.rowBegin <= row && row < o.rect.rowEnd) across.push_back(&o);
    std::sort(across.begin(), across.end(),
              [](const OwnedRect* a, const OwnedRect* b) {
                return a->rect.colBegin < b->rect.colBegin;
              });
    runs.clear();
    const auto append = [&](Proc owner, int length) {
      if (length <= 0) return;
      const auto code = static_cast<std::int32_t>(owner);
      if (!runs.empty() && runs[runs.size() - 2] == code)
        runs.back() += length;
      else
        runs.insert(runs.end(), {code, length});
    };
    int col = 0;
    for (const OwnedRect* o : across) {
      append(Proc::P, o->rect.colBegin - col);
      append(o->owner, o->rect.width());
      col = o->rect.colEnd;
    }
    append(Proc::P, n_ - col);
    if (runs != prev) {
      flush();
      prev.swap(runs);
      height = 0;
    }
    height += cuts[k + 1] - row;
  }
  flush();
  return form;
}

std::size_t BandRunsHash::operator()(
    const std::vector<std::int32_t>& form) const {
  Fnv1a h;
  for (const std::int32_t w : form)
    for (int b = 0; b < 4; ++b)
      h.add(static_cast<std::uint8_t>(static_cast<std::uint32_t>(w) >>
                                      (8 * b)));
  return static_cast<std::size_t>(h.value);
}

std::int64_t LineCounts::volumeOfCommunication() const {
  return static_cast<std::int64_t>(n_) * (ciSum_ - n_) +
         static_cast<std::int64_t>(n_) * (cjSum_ - n_);
}

}  // namespace pushpart
