// Metric collection, summary statistics and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pushbench {

/// Linear-interpolated percentile, q in [0, 1]. 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Peak resident set size of this process in MB (VmHWM).
double peakRssMb();

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;
  /// "name value unit" lines for a human reader.
  std::string text() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The benchmark's last stdout line.
std::string resultLine(bool correct, std::int64_t attempted, std::int64_t failed,
                       const Metrics& metrics);

}  // namespace pushbench
