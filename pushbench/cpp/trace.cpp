#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace pushbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b.begin(), b.end());
  return out;
}

namespace {

/// Nanoseconds of [start, end) covered by the union of `children`.
std::int64_t covered(std::int64_t start, std::int64_t end,
                     std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  std::sort(children.begin(), children.end());
  std::int64_t total = 0;
  std::int64_t reach = start;
  for (auto [s, e] : children) {
    s = std::max(s, reach);
    e = std::min(e, end);
    if (e > s) {
      total += e - s;
      reach = e;
    }
  }
  return total;
}

}  // namespace

TraceSummary summarize(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.startNs, s.endNs);

  std::map<std::string, SpanTotals> totals;
  double rootNs = 0.0;
  double rootSelfNs = 0.0;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const std::int64_t dur = s.endNs - s.startNs;
    const std::int64_t self =
        dur - (it == children.end() ? 0 : covered(s.startNs, s.endNs, it->second));
    SpanTotals& t = totals[s.name];
    t.name = s.name;
    ++t.count;
    t.totalMs += static_cast<double>(dur) * 1e-6;
    t.selfMs += static_cast<double>(self) * 1e-6;
    if (s.parent == 0) {
      rootNs += static_cast<double>(dur);
      rootSelfNs += static_cast<double>(self);
    }
  }
  TraceSummary out;
  for (auto& [name, t] : totals) out.byName.push_back(std::move(t));
  out.unattributedShare = rootNs > 0.0 ? rootSelfNs / rootNs : 0.0;
  return out;
}

bool writeTraceFile(const std::string& path, const std::string& workload,
                    std::uint64_t seed, const std::vector<Span>& spans,
                    const TraceSummary& summary) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.startNs < b.startNs;
                                       })->startNs;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n", workload.c_str(),
               static_cast<unsigned long long>(seed));
  std::fprintf(f, " \"unattributed_share\": %.9g,\n \"by_name\": [\n",
               summary.unattributedShare);
  for (std::size_t k = 0; k < summary.byName.size(); ++k) {
    const SpanTotals& t = summary.byName[k];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"count\": %zu, \"total_ms\": %.9g, "
                 "\"self_ms\": %.9g}%s\n",
                 t.name.c_str(), t.count, t.totalMs, t.selfMs,
                 k + 1 < summary.byName.size() ? "," : "");
  }
  std::fprintf(f,
               " ],\n \"span_fields\": [\"id\", \"parent\", \"request\", "
               "\"name\", \"start_us\", \"end_us\"],\n \"spans\": [\n");
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    std::fprintf(f, "  [%llu, %llu, %llu, \"%s\", %.3f, %.3f]%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<double>(s.startNs - origin) * 1e-3,
                 static_cast<double>(s.endNs - origin) * 1e-3,
                 k + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace pushbench
