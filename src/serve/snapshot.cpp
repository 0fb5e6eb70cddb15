#include "serve/snapshot.hpp"

#include <sstream>

#include "shapes/candidates.hpp"

namespace pushpart {

namespace {

// v2 added the atlas provenance fields (atlasServed, atlasCertGapPct,
// atlasI, atlasJ); v3 added the family/lower-bound evidence (family,
// familyCandidate, optimalityGapPct). Older files are refused — a silently
// restored answer missing its provenance would misreport the sources
// breakdown (or claim a zero gap it never computed) forever.
constexpr RecordFormat kFormat{"pushpart-plancache v3", "snapshot", "entries",
                               "e"};

/// The answer's 23 fields, space-separated, in a fixed order the loader
/// mirrors. Booleans and enums travel as integers; the familyCandidate
/// token is space-free by construction (serialized as "-" when empty).
std::string payloadFor(const PlanCache::SnapshotEntry& entry) {
  const PlanAnswer& a = entry.answer;
  std::ostringstream os;
  os << entry.key << ' ' << static_cast<int>(a.shape) << ' '
     << formatRecordDouble(a.model.commSeconds) << ' '
     << formatRecordDouble(a.model.overlapSeconds) << ' '
     << formatRecordDouble(a.model.compSeconds) << ' '
     << formatRecordDouble(a.model.execSeconds) << ' ' << a.voc << ' '
     << static_cast<int>(a.tier) << ' ' << static_cast<int>(a.servedTier)
     << ' ' << static_cast<int>(a.degrade) << ' ' << (a.truncated ? 1 : 0)
     << ' ' << formatRecordDouble(a.solveSeconds) << ' ' << a.searchRuns << ' '
     << a.searchCompleted << ' ' << a.searchBestVoc << ' '
     << formatRecordDouble(a.searchBestExecSeconds) << ' '
     << (a.searchConfirmedCandidate ? 1 : 0) << ' '
     << (a.atlasServed ? 1 : 0) << ' ' << formatRecordDouble(a.atlasCertGapPct)
     << ' ' << a.atlasI << ' ' << a.atlasJ << ' '
     << static_cast<int>(a.family) << ' '
     << (a.familyCandidate.empty() ? "-" : a.familyCandidate) << ' '
     << formatRecordDouble(a.optimalityGapPct);
  return os.str();
}

/// Parses one payload back into an entry. Returns false on any field-count,
/// numeric-format or enum-range problem — the caller skips the entry.
bool parsePayload(const std::string& payload,
                  PlanCache::SnapshotEntry& entry) {
  std::istringstream is(payload);
  int shape = -1, tier = -1, servedTier = -1, degrade = -1, truncated = -1,
      confirmed = -1, atlasServed = -1, family = -1;
  std::string familyCandidate;
  PlanAnswer a;
  if (!(is >> entry.key >> shape >> a.model.commSeconds >>
        a.model.overlapSeconds >> a.model.compSeconds >>
        a.model.execSeconds >> a.voc >> tier >> servedTier >> degrade >>
        truncated >> a.solveSeconds >> a.searchRuns >> a.searchCompleted >>
        a.searchBestVoc >> a.searchBestExecSeconds >> confirmed >>
        atlasServed >> a.atlasCertGapPct >> a.atlasI >> a.atlasJ >> family >>
        familyCandidate >> a.optimalityGapPct))
    return false;
  std::string trailing;
  if (is >> trailing) return false;
  if (shape < 0 || shape >= kNumCandidates) return false;
  if (tier < 0 || tier > 1 || servedTier < 0 || servedTier > 1) return false;
  if (degrade < 0 ||
      degrade > static_cast<int>(DegradeReason::kLate))
    return false;
  if (truncated < 0 || truncated > 1 || confirmed < 0 || confirmed > 1)
    return false;
  if (atlasServed < 0 || atlasServed > 1) return false;
  if (!(a.atlasCertGapPct >= 0.0)) return false;
  if (a.atlasI < -1 || a.atlasJ < -1) return false;
  if (family < 0 || family >= kNumFamilies) return false;
  if (!(a.optimalityGapPct >= 0.0)) return false;
  a.family = static_cast<FamilyId>(family);
  a.familyCandidate = familyCandidate == "-" ? "" : familyCandidate;
  a.shape = static_cast<CandidateShape>(shape);
  a.tier = static_cast<PlanTier>(tier);
  a.servedTier = static_cast<PlanTier>(servedTier);
  a.degrade = static_cast<DegradeReason>(degrade);
  a.truncated = truncated == 1;
  a.searchConfirmedCandidate = confirmed == 1;
  a.atlasServed = atlasServed == 1;
  entry.answer = a;
  return true;
}

}  // namespace

std::size_t savePlanCacheSegment(
    const std::vector<PlanCache::SnapshotEntry>& entries, std::ostream& os) {
  std::vector<std::string> payloads;
  for (const auto& entry : entries) payloads.push_back(payloadFor(entry));
  writeRecordFile(os, kFormat, "", payloads);
  return entries.size();
}

std::size_t savePlanCacheSnapshot(const PlanCache& cache, std::ostream& os) {
  return savePlanCacheSegment(cache.exportEntries(), os);
}

std::size_t savePlanCacheSnapshot(const PlanCache& cache,
                                  const std::string& path) {
  return publishRecordFile(path, kFormat, [&](std::ostream& os) {
    return savePlanCacheSnapshot(cache, os);
  });
}

SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            std::istream& is) {
  SnapshotLoadReport report;
  readRecordFile(is, kFormat, report, {}, [&](const std::string& payload) {
    PlanCache::SnapshotEntry entry;
    if (!parsePayload(payload, entry)) return false;
    cache.insertWarm(entry.key, entry.answer);
    return true;
  });
  return report;
}

SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            const std::string& path) {
  return loadRecordPath<SnapshotLoadReport>(
      path, kFormat,
      [&](std::istream& is) { return tryLoadPlanCacheSnapshot(cache, is); });
}

}  // namespace pushpart
