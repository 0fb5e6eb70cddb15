// Minimal command-line flag parser for bench and example binaries.
//
// Every bench binary must run with no arguments (paper-default parameters)
// yet allow full-scale runs (`--n=1000 --runs=10000`). Flags look like
// `--name=value` or `--name value`; bare `--name` sets a boolean.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pushpart {

/// Parsed command-line flags with typed, defaulted accessors.
class Flags {
 public:
  Flags() = default;

  /// Parses argv. Throws std::invalid_argument on malformed input
  /// (e.g. a positional token that is not attached to any flag).
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string str(const std::string& name, const std::string& fallback) const;
  /// Integer and floating-point reads throw std::invalid_argument
  /// ("flag --x expects ...") on malformed or out-of-range values instead of
  /// saturating or narrowing them.
  std::int64_t i64(const std::string& name, std::int64_t fallback) const;
  /// An i64 that must also fit an int (sizes, counts, thread numbers).
  int i32(const std::string& name, int fallback) const;
  double f64(const std::string& name, double fallback) const;
  bool b(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of all flags that were set (for --help style diagnostics).
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The whole main() of a bench or example binary: parses argv and returns
/// body(flags). A malformed flag, or any other exception `body` lets
/// escape, prints "error: <what>" to stderr and returns 1 instead of
/// aborting.
int runMain(int argc, const char* const* argv, int (*body)(const Flags&));

}  // namespace pushpart
