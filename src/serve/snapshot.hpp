// Warm-restart persistence for the PlanCache.
//
// A restarted oracle starts cold: every hot key pays a full solve again.
// A snapshot is a support/recordfile document (per-entry checksums, atomic
// writes, byte-identical round trips):
//
//   pushpart-plancache v3
//   entries <count>
//   e <fnv1a-16-hex> <key-text> <23 answer fields>
//
// Damage costs the entries it touches, not the snapshot; a wrong version
// refuses the whole file rather than guess. Callers (the CLI's --snapshot
// restore, the cluster's rebalance transfer) assert on the report's counts.
// savePlanCacheSegment writes any entry subset as a complete document: the
// cluster's wire format.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "support/recordfile.hpp"

namespace pushpart {

using SnapshotLoadReport = RecordLoadReport;

/// Serializes every resident cache entry; the path variant publishes
/// atomically. Returns entries written; throws std::runtime_error on I/O
/// failure (the destination is untouched in that case).
std::size_t savePlanCacheSnapshot(const PlanCache& cache, std::ostream& os);
std::size_t savePlanCacheSnapshot(const PlanCache& cache,
                                  const std::string& path);

/// Serializes an explicit entry list (e.g. one rebalance segment).
std::size_t savePlanCacheSegment(
    const std::vector<PlanCache::SnapshotEntry>& entries, std::ostream& os);

/// Restores entries via PlanCache::insertWarm, never throwing: corrupt
/// entries are skipped and counted; a version mismatch or unreadable file
/// comes back as a report with versionRefused/error set and nothing loaded,
/// so serving paths survive a bad snapshot.
SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            std::istream& is);
SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            const std::string& path);

}  // namespace pushpart
