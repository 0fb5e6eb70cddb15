#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace pushbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k == 0 ? "" : ", ", entries_[k].name.c_str(), entries_[k].value,
                  entries_[k].unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::string Metrics::text() const {
  std::string out;
  for (const Entry& e : entries_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-40s %14.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += buf;
  }
  return out;
}

std::string resultLine(bool correct, std::int64_t attempted, std::int64_t failed,
                       const Metrics& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.json() + "}";
}

}  // namespace pushbench
