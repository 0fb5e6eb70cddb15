#include "nproc/nsearch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <unordered_set>

#include "grid/metrics.hpp"
#include "push/engine.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"

namespace pushpart {

double NSpeeds::total() const {
  double t = 0;
  for (double s : speeds) t += s;
  return t;
}

bool NSpeeds::valid() const {
  if (speeds.size() < 2) return false;
  for (double s : speeds)
    if (!(s > 0) || !std::isfinite(s)) return false;
  for (std::size_t i = 1; i < speeds.size(); ++i)
    if (speeds[i] > speeds[0]) return false;
  return true;
}

std::vector<std::int64_t> NSpeeds::elementCounts(int n) const {
  PUSHPART_CHECK(n > 0);
  PUSHPART_CHECK_MSG(valid(), "invalid speed vector " << str());
  const double t = total();
  const auto n2 = static_cast<std::int64_t>(n) * n;
  std::vector<std::int64_t> counts(speeds.size(), 0);
  std::int64_t assigned = 0;
  for (std::size_t i = 1; i < speeds.size(); ++i) {
    counts[i] = static_cast<std::int64_t>(
        std::floor(static_cast<double>(n2) * speeds[i] / t));
    assigned += counts[i];
  }
  counts[0] = n2 - assigned;  // the fastest absorbs rounding, as with P
  PUSHPART_CHECK(counts[0] >= 0);
  return counts;
}

NSpeeds NSpeeds::parse(const std::string& text) {
  NSpeeds out;
  const char* cur = text.c_str();
  while (true) {
    char* end = nullptr;
    const double v = std::strtod(cur, &end);
    if (end == cur)
      throw std::invalid_argument("NSpeeds::parse: bad vector '" + text + "'");
    if (!(v > 0) || !std::isfinite(v))
      throw std::invalid_argument(
          "NSpeeds::parse: speeds must be positive and finite in '" + text +
          "'");
    out.speeds.push_back(v);
    cur = end;
    if (*cur == '\0') break;
    if (*cur != ':')
      throw std::invalid_argument("NSpeeds::parse: expected ':' in '" + text +
                                  "'");
    ++cur;
  }
  if (out.speeds.size() < 2)
    throw std::invalid_argument("NSpeeds::parse: need at least two speeds");
  return out;
}

std::string NSpeeds::str() const {
  std::string s;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    if (i) s += ':';
    s += formatNumber(speeds[i]);
  }
  return s;
}

NPartition randomNPartition(int n, const NSpeeds& speeds, Rng& rng) {
  const int k = static_cast<int>(speeds.speeds.size());
  NPartition q(n, k);
  const auto counts = speeds.elementCounts(n);
  for (NProcId p = 1; p < k; ++p) {
    std::int64_t remaining = counts[static_cast<std::size_t>(p)];
    std::int64_t attempts = 0;
    const std::int64_t budget = 20 * q.cellCount();
    while (remaining > 0 && attempts < budget) {
      ++attempts;
      const int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const int j = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      if (q.at(i, j) == 0) {
        q.set(i, j, p);
        --remaining;
      }
    }
    for (int i = 0; i < n && remaining > 0; ++i)
      for (int j = 0; j < n && remaining > 0; ++j)
        if (q.at(i, j) == 0) {
          q.set(i, j, p);
          --remaining;
        }
    PUSHPART_CHECK(remaining == 0);
  }
  return q;
}

std::vector<NScheduleSlot> randomNSchedule(int procs, Rng& rng) {
  PUSHPART_CHECK(procs >= 2);
  std::vector<NScheduleSlot> slots;
  for (NProcId p = 1; p < procs; ++p) {
    std::vector<Direction> dirs(kAllDirections.begin(), kAllDirections.end());
    rng.shuffle(dirs);
    dirs.resize(1 + rng.below(4));
    for (Direction d : dirs) slots.push_back({p, d});
  }
  rng.shuffle(slots);
  return slots;
}

NShapeStats summarizeShape(const NPartition& q) {
  NShapeStats stats;
  stats.procs = q.procs();
  stats.voc = q.volumeOfCommunication();
  stats.slowProcs = q.procs() - 1;
  for (NProcId p = 1; p < q.procs(); ++p)
    if (isAsymptoticallyRectangular(q, p)) ++stats.rectangularProcs;
  stats.allSlowRectangular = stats.rectangularProcs == stats.slowProcs;
  for (NProcId a = 1; a < q.procs(); ++a)
    for (NProcId b = a + 1; b < q.procs(); ++b)
      if (q.enclosingRect(a).overlaps(q.enclosingRect(b)))
        ++stats.overlappingPairs;
  return stats;
}

NSearchResult runNSearch(int n, const NSpeeds& speeds, Rng& rng,
                         std::int64_t maxPushes) {
  NSearchResult result{randomNPartition(n, speeds, rng), 0, 0, 0, {}};
  NPartition& q = result.final;
  result.vocStart = q.volumeOfCommunication();

  const auto schedule = randomNSchedule(q.procs(), rng);
  std::unordered_set<std::uint64_t> plateau;
  bool running = true;
  while (running) {
    bool anyApplied = false;
    bool anyImproved = false;
    for (const NScheduleSlot& slot : schedule) {
      const auto out = tryPushState(q, slot.active, slot.dir);
      if (!out.applied) continue;
      anyApplied = true;
      anyImproved |= out.improvedVoC();
      if (++result.pushesApplied >= maxPushes) {
        running = false;
        break;
      }
    }
    if (!anyApplied) break;
    if (anyImproved) {
      plateau.clear();
    } else if (!plateau.insert(q.hash()).second) {
      break;  // equal-VoC cycle across sweeps
    }
  }

  result.pushesApplied += beautifyState(q).pushesApplied;  // all directions
  result.vocEnd = q.volumeOfCommunication();
  result.stats = summarizeShape(q);
  return result;
}

}  // namespace pushpart
