#include "atlas/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "atlas/builder.hpp"

namespace pushpart {
namespace {

std::shared_ptr<PlanAtlas> builtAtlas() {
  AtlasBuildOptions options;
  options.spec.prMin = 1.0;
  options.spec.prMax = 6.0;
  options.spec.prSteps = 6;
  options.spec.rrMin = 1.0;
  options.spec.rrMax = 3.0;
  options.spec.rrSteps = 3;
  options.info.n = 48;
  options.threads = 1;
  return buildAtlas(options);
}

std::string savedText(const PlanAtlas& atlas) {
  std::ostringstream os;
  saveAtlas(atlas, os);
  return os.str();
}

TEST(AtlasIoTest, SaveLoadSaveIsByteIdentical) {
  const auto atlas = builtAtlas();
  const std::string first = savedText(*atlas);

  std::istringstream is(first);
  const AtlasLoadReport report = tryLoadAtlas(is);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, atlas->solvedCells());

  // A loaded cell must certify exactly like the freshly built one: the
  // round trip preserves every byte, including %.17g double digits.
  EXPECT_EQ(savedText(*report.atlas), first);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 3; ++j)
      if (atlas->spec().validCell(i, j))
        EXPECT_EQ(*report.atlas->cell(i, j), *atlas->cell(i, j));
}

TEST(AtlasIoTest, FutureVersionIsRefusedWhole) {
  std::string text = savedText(*builtAtlas());
  const std::string magic = "pushpart-atlas v2";
  const auto pos = text.find(magic);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, magic.size(), "pushpart-atlas v3");

  std::istringstream is(text);
  const AtlasLoadReport report = tryLoadAtlas(is);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.versionRefused);
  EXPECT_EQ(report.atlas, nullptr);
  EXPECT_FALSE(report.error.empty());
}

TEST(AtlasIoTest, GarbageIsRefused) {
  std::istringstream is("this is not an atlas\nat all\n");
  const AtlasLoadReport report = tryLoadAtlas(is);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.atlas, nullptr);
  EXPECT_FALSE(report.error.empty());
}

TEST(AtlasIoTest, CorruptCellIsSkippedAndBoundariesRederived) {
  const auto atlas = builtAtlas();
  std::string text = savedText(*atlas);

  // Flip one digit of the first cell record's checksum.
  const auto pos = text.find("\nc ");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + 3];  // first hex digit of the fnv1a field
  digit = (digit == '0') ? '1' : '0';

  std::istringstream is(text);
  const AtlasLoadReport report = tryLoadAtlas(is);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.loaded, atlas->solvedCells() - 1);
  EXPECT_EQ(report.atlas->solvedCells(), atlas->solvedCells() - 1);

  // Boundary flags were re-derived from the cells that survived: marking
  // again must be a no-op.
  const auto derived = report.atlas->boundaryCells();
  report.atlas->markBoundaries();
  EXPECT_EQ(report.atlas->boundaryCells(), derived);
}

TEST(AtlasIoTest, LineBoundaryTruncationIsNotClean) {
  const auto atlas = builtAtlas();
  const std::string text = savedText(*atlas);
  ASSERT_GE(atlas->solvedCells(), 3u);

  // Drop the last two cell lines whole: every surviving line verifies, so
  // only the cells count can tell the atlas is short.
  std::size_t cut = text.size() - 1;
  for (int lines = 0; lines < 2; ++lines) cut = text.rfind('\n', cut - 1);
  std::istringstream is(text.substr(0, cut + 1));
  const AtlasLoadReport report = tryLoadAtlas(is);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.loaded, atlas->solvedCells() - 2);
  EXPECT_EQ(report.skipped, 2u);

  // Cut before the cells line: nothing declares the cells, so the empty
  // atlas must not read as clean either.
  std::istringstream header(text.substr(0, text.find("cells ")));
  const AtlasLoadReport empty = tryLoadAtlas(header);
  ASSERT_TRUE(empty.ok()) << empty.error;
  EXPECT_EQ(empty.loaded, 0u);
  EXPECT_FALSE(empty.clean());
}

TEST(AtlasIoTest, InvalidGridIsRefusedByNameBeforeAllocating) {
  std::string text = savedText(*builtAtlas());
  const std::size_t grid = text.find("grid ");
  text.replace(grid, text.find('\n', grid) - grid, "grid 1 20 -3 1 10 4");

  std::istringstream is(text);
  const AtlasLoadReport report = tryLoadAtlas(is);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.atlas, nullptr);
  EXPECT_NE(report.error.find("AtlasGridSpec: needs >= 2 steps per axis"),
            std::string::npos)
      << report.error;
}

TEST(AtlasIoTest, PathRoundTripsAtomically) {
  const auto atlas = builtAtlas();
  const std::string path = ::testing::TempDir() + "/pushpart_io_test.atlas";
  const std::size_t written = saveAtlas(*atlas, path);
  EXPECT_EQ(written, atlas->solvedCells());

  const AtlasLoadReport report = tryLoadAtlas(path);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(savedText(*report.atlas), savedText(*atlas));
  std::remove(path.c_str());
}

TEST(AtlasIoTest, UnreadablePathReportsError) {
  const AtlasLoadReport report =
      tryLoadAtlas(::testing::TempDir() + "/pushpart_no_such.atlas");
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.versionRefused);
  EXPECT_FALSE(report.error.empty());
}

}  // namespace
}  // namespace pushpart
