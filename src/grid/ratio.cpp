#include "grid/ratio.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "support/check.hpp"
#include "support/csv.hpp"

namespace pushpart {

double Ratio::speed(Proc x) const {
  switch (x) {
    case Proc::P: return p;
    case Proc::R: return r;
    case Proc::S: return s;
  }
  return 0.0;
}

std::array<std::int64_t, kNumProcs> Ratio::elementCounts(int n) const {
  PUSHPART_CHECK(n > 0);
  PUSHPART_CHECK_MSG(valid(), "invalid ratio " << str());
  const double t = total();
  const auto n2 = static_cast<std::int64_t>(n) * n;
  // Floor (not round-to-nearest) so eP = n² − eR − eS ≥ n²·p/t ≥ eR, eS even
  // when P ties R in speed: the assumption "P holds the largest share" then
  // survives integer rounding.
  const auto eR = static_cast<std::int64_t>(
      std::floor(static_cast<double>(n2) * r / t));
  const auto eS = static_cast<std::int64_t>(
      std::floor(static_cast<double>(n2) * s / t));
  const auto eP = n2 - eR - eS;
  PUSHPART_CHECK_MSG(eP >= 0 && eR >= 0 && eS >= 0,
                     "element counts underflow for ratio " << str() << ", n="
                                                           << n);
  std::array<std::int64_t, kNumProcs> out{};
  out[procIndex(Proc::R)] = eR;
  out[procIndex(Proc::S)] = eS;
  out[procIndex(Proc::P)] = eP;
  return out;
}

Ratio Ratio::normalized() const {
  PUSHPART_CHECK(s > 0);
  return Ratio{p / s, r / s, 1.0};
}

bool Ratio::valid() const {
  return p > 0 && r > 0 && s > 0 && std::isfinite(p) && p >= r && p >= s;
}

Ratio Ratio::parse(const std::string& text) {
  Ratio out;
  double* slots[3] = {&out.p, &out.r, &out.s};
  const char* cur = text.c_str();
  for (int i = 0; i < 3; ++i) {
    char* end = nullptr;
    *slots[i] = std::strtod(cur, &end);
    if (end == cur)
      throw std::invalid_argument("Ratio::parse: bad ratio '" + text + "'");
    cur = end;
    if (i < 2) {
      if (*cur != ':')
        throw std::invalid_argument("Ratio::parse: expected ':' in '" + text +
                                    "'");
      ++cur;
    }
  }
  if (*cur != '\0')
    throw std::invalid_argument("Ratio::parse: trailing junk in '" + text +
                                "'");
  for (const double v : {out.p, out.r, out.s})
    if (!(v > 0) || !std::isfinite(v))
      throw std::invalid_argument(
          "Ratio::parse: speeds must be positive and finite in '" + text +
          "'");
  return out;
}

std::string Ratio::str() const {
  return formatNumber(p) + ":" + formatNumber(r) + ":" + formatNumber(s);
}

const std::array<Ratio, 11>& paperRatios() {
  static const std::array<Ratio, 11> ratios = {
      Ratio{2, 1, 1}, Ratio{3, 1, 1}, Ratio{4, 1, 1},  Ratio{5, 1, 1},
      Ratio{10, 1, 1}, Ratio{2, 2, 1}, Ratio{3, 2, 1}, Ratio{4, 2, 1},
      Ratio{5, 2, 1}, Ratio{5, 3, 1}, Ratio{5, 4, 1}};
  return ratios;
}

}  // namespace pushpart
