#include "support/recordfile.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pushpart {
namespace {

constexpr RecordFormat kToy{"toy-records v1", "toy", "items", "r"};

std::string written(const std::vector<std::string>& payloads) {
  std::ostringstream os;
  writeRecordFile(os, kToy, "", payloads);
  return os.str();
}

struct Loaded {
  RecordLoadReport report;
  std::vector<std::string> payloads;
};

RecordLoadReport loadStream(std::istream& is,
                            std::vector<std::string>& payloads) {
  RecordLoadReport report;
  readRecordFile(is, kToy, report, {}, [&](const std::string& payload) {
    if (payload == "reject") return false;
    payloads.push_back(payload);
    return true;
  });
  return report;
}

Loaded load(const std::string& text) {
  Loaded out;
  std::istringstream is(text);
  out.report = loadStream(is, out.payloads);
  return out;
}

TEST(RecordFileTest, WritesMagicCountAndChecksummedLines) {
  const std::string text = written({"a 1", "b 2"});
  EXPECT_EQ(text.substr(0, text.find("r ")), "toy-records v1\nitems 2\n");
  char line[64];
  std::snprintf(line, sizeof(line), "r %016llx a 1\n",
                static_cast<unsigned long long>(fnv1a("a 1")));
  EXPECT_NE(text.find(line), std::string::npos) << text;

  const Loaded back = load(text);
  EXPECT_TRUE(back.report.clean());
  EXPECT_EQ(back.payloads, (std::vector<std::string>{"a 1", "b 2"}));
  EXPECT_EQ(formatRecordDouble(0.1), "0.10000000000000001");
}

TEST(RecordFileTest, CountLineAccountsForEveryRecord) {
  const std::string text = written({"a", "b", "c"});
  const std::size_t lastLine = text.rfind('\n', text.size() - 2) + 1;
  const std::string firstRecord =
      text.substr(text.find("r "), text.find('\n', text.find("r ")) -
                                       text.find("r ") + 1);
  struct Case {
    std::string text;
    std::size_t loaded;
    std::size_t skipped;
  };
  const std::vector<Case> cases = {
      // A whole line lost: only the count shows it.
      {text.substr(0, lastLine), 2, 1},
      // A duplicated line is damage, not a fourth record.
      {text + firstRecord, 3, 1},
      // More records than declared: the count line itself is wrong.
      {text.substr(0, text.find("items")) + "items 2\n" +
           text.substr(text.find("r ")),
       3, 1},
      // No count line at all.
      {text.substr(0, text.find("items")) + text.substr(text.find("r ")), 3,
       1},
      // A record the format rejects is skipped like a corrupt one.
      {written({"a", "reject"}), 1, 1},
      // CRLF line endings read like LF.
      {"toy-records v1\r\nitems 0\r\n", 0, 0},
  };
  for (const Case& c : cases) {
    const Loaded got = load(c.text);
    ASSERT_TRUE(got.report.ok()) << c.text;
    EXPECT_EQ(got.report.loaded, c.loaded) << c.text;
    EXPECT_EQ(got.report.skipped, c.skipped) << c.text;
  }
}

TEST(RecordFileTest, WrongMagicIsRefusedWhole) {
  const Loaded got = load("toy-records v2\nitems 0\n");
  EXPECT_FALSE(got.report.ok());
  EXPECT_TRUE(got.report.versionRefused);
  EXPECT_NE(got.report.error.find("unsupported toy version 'toy-records v2'"),
            std::string::npos)
      << got.report.error;
}

TEST(RecordFileTest, FailedPublishLeavesTheDestinationAndNoTemporary) {
  const std::string path = ::testing::TempDir() + "/pushpart_recordfile.toy";
  EXPECT_EQ(publishRecordFile(path, kToy,
                              [](std::ostream& os) {
                                writeRecordFile(os, kToy, "", {"kept"});
                                return std::size_t{1};
                              }),
            1u);
  EXPECT_THROW(publishRecordFile(path, kToy,
                                 [](std::ostream& os) -> std::size_t {
                                   os << "half a file";
                                   throw std::runtime_error("writer died");
                                 }),
               std::runtime_error);

  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::vector<std::string> payloads;
  const auto fromPath = [&]() {
    return loadRecordPath<RecordLoadReport>(
        path, kToy, [&](std::istream& is) { return loadStream(is, payloads); });
  };
  EXPECT_TRUE(fromPath().clean());
  EXPECT_EQ(payloads, std::vector<std::string>{"kept"});

  std::remove(path.c_str());
  const RecordLoadReport missing = fromPath();
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace pushpart
