// Checksummed line-record files, the one format behind the plan atlas
// (atlas/io) and the plan-cache snapshot (serve/snapshot):
//
//   <magic>
//   <header lines>            owned by the format (the atlas's grid/info)
//   <countTag> <count>
//   <recordTag> <fnv1a-16-hex of payload, from the format's basis> <payload>
//
// Doubles keep 17 significant digits (save -> load -> save is
// byte-identical) and writes publish atomically. A wrong magic line refuses
// the whole file. Past the header a line is skipped when its tag or checksum
// fails, the format rejects it, or it repeats an earlier record. The count
// line is checked last: a shortfall joins `skipped` (a cut at a line
// boundary is not clean), and an excess or a missing count line adds one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "support/fnv1a.hpp"

namespace pushpart {

struct RecordFormat {
  std::string_view magic;      ///< The whole first line.
  std::string_view noun;       ///< Names the file in messages.
  std::string_view countTag;
  std::string_view recordTag;
  std::uint64_t checksumBasis = kFnv1aOffsetBasis;
};

struct RecordLoadReport {
  std::size_t loaded = 0;
  std::size_t skipped = 0;  ///< Damaged, repeated or missing records.
  bool versionRefused = false;
  std::string error;  ///< Non-empty when the whole file was refused.

  bool ok() const { return !versionRefused && error.empty(); }
  bool clean() const { return ok() && skipped == 0; }
};

std::string formatRecordDouble(double v);

/// Writes the magic line, `header` (whole lines), the count line and one
/// checksummed line per payload. Throws std::runtime_error on stream
/// failure.
void writeRecordFile(std::ostream& os, const RecordFormat& format,
                     std::string_view header,
                     const std::vector<std::string>& payloads);

/// Runs `write` on a temporary next to `path`, renames it over `path` and
/// returns what `write` returned. On any failure the temporary is removed,
/// `path` is untouched and the exception (std::runtime_error for I/O)
/// propagates.
std::size_t publishRecordFile(
    const std::string& path, const RecordFormat& format,
    const std::function<std::size_t(std::ostream&)>& write);

/// Reads a whole file into `report`. After the magic line, `header` (may be
/// empty) reads the format's header lines; it returns false, with
/// report.error set, to refuse the file. Each verified payload then goes to
/// `accept`, which returns false to reject it.
void readRecordFile(std::istream& is, const RecordFormat& format,
                    RecordLoadReport& report,
                    const std::function<bool(std::istream&)>& header,
                    const std::function<bool(const std::string&)>& accept);

/// Opens `path` and returns load(stream), or a report naming the
/// unreadable path.
template <class Report, class Load>
Report loadRecordPath(const std::string& path, const RecordFormat& format,
                      Load&& load) {
  std::ifstream in(path);
  if (in) return load(in);
  Report report;
  report.error = "load " + std::string(format.noun) + ": cannot open " + path;
  return report;
}

}  // namespace pushpart
