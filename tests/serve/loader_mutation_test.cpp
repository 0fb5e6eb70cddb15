// Seeded mutation test for the two record-file loaders: the plan atlas and
// the plan-cache snapshot. A saved file of each takes byte flips,
// truncations at sampled offsets, and duplicated or spliced lines. Whatever
// the damage, a load must not throw, must account for every declared
// record, must never load a record that was not saved, and must not read as
// clean once a record is lost or a line is damaged. Unmutated files load
// clean.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "atlas/builder.hpp"
#include "atlas/io.hpp"
#include "serve/snapshot.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

constexpr int kMutants = 400;
// Most damage must still be accepted, or the accounting checks run on
// too few mutants to mean anything.
constexpr int kMinAccepted = kMutants / 2;

enum class MutationKind { kFlip, kTruncate, kDuplicate, kSplice };

struct Mutant {
  std::string text;
  MutationKind kind = MutationKind::kFlip;
  std::size_t offset = 0;  ///< First byte the mutation changed.
};

/// The lines of `text`, each with its '\n'.
std::vector<std::string> linesOf(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t end = text.find('\n', at);
    const std::size_t next = end == std::string::npos ? text.size() : end + 1;
    lines.push_back(text.substr(at, next - at));
    at = next;
  }
  return lines;
}

std::size_t offsetOfLine(const std::vector<std::string>& lines,
                         std::size_t k) {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < k; ++i) offset += lines[i].size();
  return offset;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

Mutant mutate(const std::string& text, Rng& rng) {
  Mutant m;
  m.text = text;
  std::vector<std::string> lines = linesOf(text);
  const std::size_t lineCount = lines.size();
  switch (rng.below(4)) {
    case 0: {
      m.kind = MutationKind::kFlip;
      m.offset = static_cast<std::size_t>(rng.below(text.size()));
      const auto flip = static_cast<unsigned char>(1 + rng.below(255));
      m.text[m.offset] = static_cast<char>(
          static_cast<unsigned char>(m.text[m.offset]) ^ flip);
      break;
    }
    case 1:
      m.kind = MutationKind::kTruncate;
      m.offset = static_cast<std::size_t>(rng.below(text.size()));
      m.text.resize(m.offset);
      break;
    case 2: {
      m.kind = MutationKind::kDuplicate;
      const auto from = static_cast<std::size_t>(rng.below(lineCount));
      const auto to = static_cast<std::size_t>(rng.below(lineCount + 1));
      m.offset = offsetOfLine(lines, to);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to),
                   lines[from]);
      m.text = joined(lines);
      break;
    }
    default: {
      m.kind = MutationKind::kSplice;
      const auto from = static_cast<std::size_t>(rng.below(lineCount));
      auto to = static_cast<std::size_t>(rng.below(lineCount - 1));
      if (to >= from) ++to;
      m.offset = offsetOfLine(lines, to);
      lines[to] = lines[from];
      m.text = joined(lines);
      break;
    }
  }
  return m;
}

/// The mutant still holds every byte of the original (a cut that took only
/// the final newline).
bool lostNothing(const std::string& original, const std::string& mutant) {
  return mutant == original ||
         mutant == original.substr(0, original.size() - 1);
}

PlanAnswer answerFor(int salt) {
  PlanAnswer a;
  a.shape = static_cast<CandidateShape>(salt % kNumCandidates);
  a.model.commSeconds = 0.1 + salt / 3.0;
  a.model.compSeconds = 1.0 / (salt + 7);
  a.model.execSeconds = a.model.compSeconds + a.model.commSeconds;
  a.voc = 1000 + salt;
  a.optimalityGapPct = 1.25 * salt;
  a.family = static_cast<FamilyId>(salt % kNumFamilies);
  if (salt % 2 == 0) a.familyCandidate = "layers:P/R-S:r";
  a.solveSeconds = 3.14159e-4 * (salt + 1);
  return a;
}

TEST(LoaderMutationTest, SnapshotSurvivesSeededDamage) {
  constexpr std::size_t kEntries = 6;
  PlanCache cache(64, 4);
  for (std::size_t i = 0; i < kEntries; ++i) {
    PlanRequest req;
    req.n = 20 + static_cast<int>(i);
    cache.getOrCompute(canonicalize(req), [&]() {
      return answerFor(static_cast<int>(i));
    });
  }
  const std::vector<PlanCache::SnapshotEntry> saved = cache.exportEntries();
  std::ostringstream os;
  ASSERT_EQ(savePlanCacheSnapshot(cache, os), kEntries);
  const std::string original = os.str();
  const std::string countLine =
      "\nentries " + std::to_string(kEntries) + "\n";

  const auto load = [](const std::string& text, PlanCache& into) {
    std::istringstream is(text);
    return tryLoadPlanCacheSnapshot(into, is);
  };
  {
    PlanCache restored(64, 4);
    const SnapshotLoadReport report = load(original, restored);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.loaded, kEntries);
  }

  Rng rng(13);
  int accepted = 0;
  for (int round = 0; round < kMutants; ++round) {
    const Mutant m = mutate(original, rng);
    SCOPED_TRACE("mutant " + std::to_string(round) + " kind " +
                 std::to_string(static_cast<int>(m.kind)) + " at " +
                 std::to_string(m.offset));
    PlanCache restored(64, 4);
    SnapshotLoadReport report;
    ASSERT_NO_THROW(report = load(m.text, restored));
    if (!report.ok()) {
      EXPECT_EQ(restored.counters().entries, 0u);
      continue;
    }
    ++accepted;
    if (m.text.find(countLine) != std::string::npos) {
      EXPECT_GE(report.loaded + report.skipped, kEntries);
    }
    EXPECT_EQ(restored.counters().entries, report.loaded);
    for (const PlanCache::SnapshotEntry& got : restored.exportEntries()) {
      bool known = false;
      for (const PlanCache::SnapshotEntry& want : saved)
        known = known || (got.key == want.key && got.answer == want.answer);
      EXPECT_TRUE(known) << "loaded an entry never saved: " << got.key;
    }
    if (!lostNothing(original, m.text)) {
      EXPECT_FALSE(report.clean());
    }
  }
  EXPECT_GE(accepted, kMinAccepted);
}

TEST(LoaderMutationTest, AtlasSurvivesSeededDamage) {
  AtlasBuildOptions options;
  options.spec.prMin = 1.0;
  options.spec.prMax = 6.0;
  options.spec.prSteps = 6;
  options.spec.rrMin = 1.0;
  options.spec.rrMax = 3.0;
  options.spec.rrSteps = 3;
  options.info.n = 48;
  options.threads = 1;
  const auto atlas = buildAtlas(options);
  const std::size_t cells = atlas->solvedCells();
  std::ostringstream os;
  ASSERT_EQ(saveAtlas(*atlas, os), cells);
  const std::string original = os.str();
  const std::string countLine = "\ncells " + std::to_string(cells) + "\n";
  // The grid/info header carries no checksum (a format-version matter), so
  // a flip there may still parse; only flips past it must read unclean.
  const std::size_t headerEnd = original.find(countLine) + 1;

  const auto load = [](const std::string& text) {
    std::istringstream is(text);
    return tryLoadAtlas(is);
  };
  {
    const AtlasLoadReport report = load(original);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.loaded, cells);
  }

  Rng rng(17);
  int accepted = 0;
  for (int round = 0; round < kMutants; ++round) {
    const Mutant m = mutate(original, rng);
    SCOPED_TRACE("mutant " + std::to_string(round) + " kind " +
                 std::to_string(static_cast<int>(m.kind)) + " at " +
                 std::to_string(m.offset));
    AtlasLoadReport report;
    ASSERT_NO_THROW(report = load(m.text));
    if (!report.ok()) {
      EXPECT_EQ(report.atlas, nullptr);
      continue;
    }
    ++accepted;
    ASSERT_NE(report.atlas, nullptr);
    if (m.text.find(countLine) != std::string::npos) {
      EXPECT_GE(report.loaded + report.skipped, cells);
    }
    EXPECT_EQ(report.atlas->solvedCells(), report.loaded);
    const AtlasGridSpec& spec = report.atlas->spec();
    for (int i = 0; i < spec.prSteps; ++i) {
      for (int j = 0; j < spec.rrSteps; ++j) {
        std::optional<AtlasCell> got = report.atlas->cell(i, j);
        if (!got || !got->solved) continue;
        const std::optional<AtlasCell> want = atlas->cell(i, j);
        ASSERT_TRUE(want && want->solved)
            << "loaded a cell never saved: (" << i << "," << j << ")";
        got->boundary = want->boundary;  // re-derived from what loaded
        EXPECT_EQ(*got, *want) << "cell (" << i << "," << j << ")";
      }
    }
    const bool headerFlip =
        m.kind == MutationKind::kFlip && m.offset < headerEnd;
    if (!headerFlip && !lostNothing(original, m.text)) {
      EXPECT_FALSE(report.clean());
    }
  }
  EXPECT_GE(accepted, kMinAccepted);
}

}  // namespace
}  // namespace pushpart
