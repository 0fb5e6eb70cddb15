#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "serve/oracle.hpp"

namespace pushpart {
namespace {

CanonicalKey keyFor(int n, PlanTier tier = PlanTier::kFast) {
  PlanRequest req;
  req.n = n;
  req.tier = tier;
  if (tier == PlanTier::kSearch) req.searchRuns = 3;
  return canonicalize(req);
}

/// A full-fidelity answer exercising every serialized field, including
/// doubles that don't round-trip through shorter formats.
PlanAnswer richAnswer(int salt) {
  PlanAnswer a;
  a.shape = static_cast<CandidateShape>(salt % kNumCandidates);
  a.model.commSeconds = 0.1 + salt / 3.0;
  a.model.overlapSeconds = 0.01 * salt;
  a.model.compSeconds = 1.0 / (salt + 7);
  a.model.execSeconds = a.model.compSeconds + a.model.commSeconds;
  a.voc = 1000 + salt;
  a.optimalityGapPct = 1.25 * salt;
  a.family = static_cast<FamilyId>(salt % kNumFamilies);
  // Every third entry leaves the token empty to exercise the "-" encoding.
  if (salt % 3 != 0) a.familyCandidate = "layers:P/R-S:r";
  a.tier = salt % 2 == 0 ? PlanTier::kFast : PlanTier::kSearch;
  a.servedTier = a.tier;
  a.solveSeconds = 3.14159e-4 * (salt + 1);
  if (a.tier == PlanTier::kSearch) {
    a.searchRuns = 8;
    a.searchCompleted = 8;
    a.searchBestVoc = 900 + salt;
    a.searchBestExecSeconds = a.model.execSeconds * 1.125;
    a.searchConfirmedCandidate = true;
  }
  return a;
}

void populate(PlanCache& cache, int entries) {
  for (int i = 0; i < entries; ++i)
    cache.getOrCompute(keyFor(20 + i), [&]() { return richAnswer(i); });
}

TEST(SnapshotTest, SaveLoadSaveIsByteIdentical) {
  PlanCache cache(64, 4);
  populate(cache, 6);
  std::ostringstream first;
  EXPECT_EQ(savePlanCacheSnapshot(cache, first), 6u);

  PlanCache restored(64, 4);
  std::istringstream in(first.str());
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.loaded, 6u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(restored.counters().entries, 6u);

  std::ostringstream second;
  savePlanCacheSnapshot(restored, second);
  // %.17g doubles + deterministic export order make the round trip exact.
  EXPECT_EQ(first.str(), second.str());
}

TEST(SnapshotTest, RestoredAnswersAreBitwiseEqual) {
  PlanCache cache(64, 4);
  populate(cache, 4);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  PlanCache restored(64, 4);
  std::istringstream in(os.str());
  ASSERT_TRUE(tryLoadPlanCacheSnapshot(restored, in).ok());
  for (int i = 0; i < 4; ++i) {
    const auto hit = restored.tryGet(keyFor(20 + i));
    ASSERT_TRUE(hit.has_value()) << "entry " << i << " missing after reload";
    EXPECT_EQ(*hit, richAnswer(i));
  }
}

TEST(SnapshotTest, FlippedByteSkipsThatEntryAndKeepsTheRest) {
  PlanCache cache(64, 4);
  populate(cache, 5);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  std::string text = os.str();

  // Corrupt one digit inside the third entry line's payload.
  std::size_t pos = 0;
  for (int line = 0; line < 4; ++line) pos = text.find('\n', pos) + 1;
  const std::size_t digit = text.find_first_of("0123456789", pos + 20);
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '9' ? '8' : '9';

  PlanCache restored(64, 4);
  std::istringstream in(text);
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.loaded, 4u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(restored.counters().entries, 4u);
}

TEST(SnapshotTest, TruncatedFileKeepsThePrefixEntries) {
  PlanCache cache(64, 4);
  populate(cache, 5);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  const std::string text = os.str();
  const std::size_t lastLine = text.rfind('\n', text.size() - 2) + 1;

  // Cut mid-way through the last entry line, as a crash mid-append would,
  // and exactly at its start, where only the count line shows the loss.
  for (const std::size_t size : {text.size() - 25, lastLine}) {
    PlanCache restored(64, 4);
    std::istringstream in(text.substr(0, size));
    const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_EQ(report.loaded, 4u) << "cut at " << size;
    EXPECT_EQ(report.skipped, 1u) << "cut at " << size;
  }

  // Cut before the count line: nothing declares the entries, so the empty
  // load must not read as clean either.
  PlanCache restored(64, 4);
  std::istringstream in(text.substr(0, text.find('\n') + 1));
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_FALSE(report.clean());
}

TEST(SnapshotTest, VersionMismatchRefusesTheWholeFile) {
  PlanCache restored(64, 4);
  for (const char* text : {"pushpart-plancache v4\nentries 0\n",
                           "not a snapshot at all\n"}) {
    std::istringstream in(text);
    const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
    EXPECT_FALSE(report.ok()) << text;
    EXPECT_TRUE(report.versionRefused) << text;
  }
  EXPECT_EQ(restored.counters().entries, 0u);
}

TEST(SnapshotTest, TryLoadReportsVersionRefusalWithoutThrowing) {
  // The serving path (oracle warm start, CLI --snapshot) must survive a bad
  // snapshot file: the try-variant reports the refusal instead of throwing,
  // and the cache stays untouched.
  PlanCache restored(64, 4);
  std::istringstream future("pushpart-plancache v4\nentries 0\n");
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, future);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.versionRefused);
  EXPECT_NE(report.error.find("unsupported snapshot version"),
            std::string::npos);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(restored.counters().entries, 0u);
}

TEST(SnapshotTest, TryLoadReportsAnUnreadablePathWithoutThrowing) {
  PlanCache restored(64, 4);
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(
      restored, testing::TempDir() + "/pushpart_no_such_file.snap");
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.versionRefused);  // unreadable, not wrong-version
  EXPECT_FALSE(report.error.empty());
  EXPECT_EQ(restored.counters().entries, 0u);
}

TEST(SnapshotTest, TryLoadOfAGoodSnapshotIsClean) {
  PlanCache cache(64, 4);
  populate(cache, 3);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  PlanCache restored(64, 4);
  std::istringstream in(os.str());
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_EQ(restored.counters().entries, 3u);
}

TEST(SnapshotTest, SegmentRoundTripsAnArbitraryEntrySubset) {
  // A rebalance segment is a complete snapshot document over a hand-picked
  // entry subset — loaded through the ordinary corruption-checked path.
  PlanCache cache(64, 4);
  populate(cache, 6);
  std::vector<PlanCache::SnapshotEntry> all = cache.exportEntries();
  ASSERT_EQ(all.size(), 6u);
  const std::vector<PlanCache::SnapshotEntry> subset(all.begin(),
                                                     all.begin() + 2);

  std::ostringstream wire;
  EXPECT_EQ(savePlanCacheSegment(subset, wire), 2u);
  PlanCache receiver(64, 4);
  std::istringstream in(wire.str());
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(receiver, in);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(receiver.counters().entries, 2u);
  for (const PlanCache::SnapshotEntry& entry : subset) {
    const auto exported = receiver.exportEntries();
    EXPECT_TRUE(std::any_of(exported.begin(), exported.end(),
                            [&](const PlanCache::SnapshotEntry& got) {
                              return got.key == entry.key &&
                                     got.answer == entry.answer;
                            }))
        << "segment entry " << entry.key << " missing after transfer";
  }
}

TEST(SnapshotTest, PathRoundTripViaAtomicRename) {
  const std::string path =
      testing::TempDir() + "/pushpart_snapshot_test.snap";
  PlanCache cache(64, 4);
  populate(cache, 3);
  EXPECT_EQ(savePlanCacheSnapshot(cache, path), 3u);
  PlanCache restored(64, 4);
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, path);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_EQ(report.skipped, 0u);
  std::remove(path.c_str());
  EXPECT_FALSE(tryLoadPlanCacheSnapshot(restored, path).ok());
}

// End to end through the Oracle: a snapshot-warmed oracle serves its first
// request for a restored key as a cache hit, bit-identical to the answer
// the original oracle computed cold.
TEST(SnapshotTest, WarmedOracleServesRestoredKeysAsHits) {
  const std::string path = testing::TempDir() + "/pushpart_oracle_warm.snap";
  PlanRequest req;
  req.n = 40;
  req.tier = PlanTier::kSearch;
  req.searchRuns = 2;

  Oracle original(OracleOptions{});
  const PlanResponse cold = original.plan(req);
  EXPECT_FALSE(cold.cacheHit);
  ASSERT_GT(original.saveSnapshot(path), 0u);

  Oracle restarted(OracleOptions{});
  const SnapshotLoadReport report = restarted.tryLoadSnapshot(path);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_GE(report.loaded, 1u);
  const PlanResponse warm = restarted.plan(req);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.answer, cold.answer);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pushpart
