#include "stats/histogram.hpp"

#include <cmath>

#include "support/check.hpp"

namespace geogossip::stats {

double tv_distance_from_uniform(const std::vector<std::uint64_t>& counts) {
  GG_CHECK_ARG(!counts.empty(), "tv_distance_from_uniform: no categories");
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  GG_CHECK_ARG(total > 0, "tv_distance_from_uniform: no observations");
  const double uniform = 1.0 / static_cast<double>(counts.size());
  double accum = 0.0;
  for (const auto c : counts) {
    accum += std::abs(static_cast<double>(c) / static_cast<double>(total) -
                      uniform);
  }
  return 0.5 * accum;
}

double chi_squared_uniform(const std::vector<std::uint64_t>& counts) {
  GG_CHECK_ARG(!counts.empty(), "chi_squared_uniform: no categories");
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  GG_CHECK_ARG(total > 0, "chi_squared_uniform: no observations");
  const double expected =
      static_cast<double>(total) / static_cast<double>(counts.size());
  double accum = 0.0;
  for (const auto c : counts) {
    const double diff = static_cast<double>(c) - expected;
    accum += diff * diff / expected;
  }
  return accum;
}

}  // namespace geogossip::stats
