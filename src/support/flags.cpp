#include "support/flags.hpp"

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <stdexcept>

namespace pushpart {

namespace {

bool looksLikeValue(const std::string& s) {
  // A token following `--name` is treated as its value unless it is itself a
  // flag. A lone "-5" is a value (negative number), "--x" is a flag.
  return s.rfind("--", 0) != 0;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) == 0) {
      tok.erase(0, 2);
      const auto eq = tok.find('=');
      if (eq != std::string::npos) {
        values_[tok.substr(0, eq)] = tok.substr(eq + 1);
      } else if (i + 1 < argc && looksLikeValue(argv[i + 1])) {
        values_[tok] = argv[++i];
      } else {
        values_[tok] = "true";
      }
    } else {
      positional_.push_back(tok);
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::str(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::i64(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0')
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                it->second + "'");
  if (errno == ERANGE)
    throw std::invalid_argument("flag --" + name +
                                " expects a 64-bit integer, got '" +
                                it->second + "'");
  return v;
}

int Flags::i32(const std::string& name, int fallback) const {
  const std::int64_t v = i64(name, fallback);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    throw std::invalid_argument("flag --" + name +
                                " expects a 32-bit integer, got '" +
                                str(name, "") + "'");
  return static_cast<int>(v);
}

double Flags::f64(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0')
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                it->second + "'");
  if (errno == ERANGE)
    throw std::invalid_argument("flag --" + name +
                                " expects a number within double range, got '" +
                                it->second + "'");
  return v;
}

bool Flags::b(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              v + "'");
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

int runMain(int argc, const char* const* argv, int (*body)(const Flags&)) {
  try {
    return body(Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace pushpart
