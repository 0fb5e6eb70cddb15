#include "support/recordfile.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

namespace pushpart {

namespace {

std::string checksumHex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(checksum));
  return buf;
}

/// The rest of "<tag> <rest>", or nullopt when the line has another tag.
std::optional<std::string_view> afterTag(std::string_view line,
                                         std::string_view tag) {
  if (line.size() <= tag.size() || line.substr(0, tag.size()) != tag ||
      line[tag.size()] != ' ')
    return std::nullopt;
  return line.substr(tag.size() + 1);
}

std::optional<std::size_t> parseCount(std::string_view line,
                                      std::string_view tag) {
  const std::optional<std::string_view> digits = afterTag(line, tag);
  if (!digits) return std::nullopt;
  std::size_t count = 0;
  const char* end = digits->data() + digits->size();
  const auto [ptr, ec] = std::from_chars(digits->data(), end, count);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return count;
}

}  // namespace

std::string formatRecordDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void writeRecordFile(std::ostream& os, const RecordFormat& format,
                     std::string_view header,
                     const std::vector<std::string>& payloads) {
  os << format.magic << '\n'
     << header << format.countTag << ' ' << payloads.size() << '\n';
  for (const std::string& payload : payloads)
    os << format.recordTag << ' '
       << checksumHex(fnv1a(payload, format.checksumBasis)) << ' '
       << payload << '\n';
  if (!os)
    throw std::runtime_error("save " + std::string(format.noun) +
                             ": stream write failed");
}

std::size_t publishRecordFile(
    const std::string& path, const RecordFormat& format,
    const std::function<std::size_t(std::ostream&)>& write) {
  const std::string who = "save " + std::string(format.noun) + ": ";
  const std::string tmp = path + ".tmp";
  std::size_t written = 0;
  try {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error(who + "cannot open " + tmp);
    written = write(out);
    out.flush();
    if (!out) throw std::runtime_error(who + "write to " + tmp + " failed");
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error(who + "cannot rename " + tmp + " to " + path);
  }
  return written;
}

void readRecordFile(std::istream& is, const RecordFormat& format,
                    RecordLoadReport& report,
                    const std::function<bool(std::istream&)>& header,
                    const std::function<bool(const std::string&)>& accept) {
  std::string line;
  const auto next = [&]() {
    if (!std::getline(is, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return true;
  };
  next();
  if (line != format.magic) {
    report.versionRefused = true;
    report.error = "load " + std::string(format.noun) + ": unsupported " +
                   std::string(format.noun) + " version '" + line +
                   "' (expected '" + std::string(format.magic) + "')";
    return;
  }
  if (header && !header(is)) return;

  std::optional<std::size_t> declared;
  std::unordered_set<std::uint64_t> seen;  // checksums of verified payloads
  while (next()) {
    if (line.empty()) continue;
    if (!declared && (declared = parseCount(line, format.countTag))) continue;
    // "<tag> <16-hex> <payload>": verify the checksum before trusting a
    // byte of the payload, then let the format parse it strictly.
    const std::optional<std::string_view> rest =
        afterTag(line, format.recordTag);
    const bool framed = rest && rest->size() >= 18 && (*rest)[16] == ' ';
    const std::string payload(framed ? rest->substr(17) : "");
    const std::uint64_t checksum = fnv1a(payload, format.checksumBasis);
    if (framed && rest->substr(0, 16) == checksumHex(checksum) &&
        seen.insert(checksum).second && accept(payload))
      ++report.loaded;
    else
      ++report.skipped;
  }
  // The count line is the completeness check: lines lost at a line
  // boundary verify nowhere else.
  if (!declared || report.loaded > *declared)
    ++report.skipped;
  else
    report.skipped = std::max(report.skipped, *declared - report.loaded);
}

}  // namespace pushpart
