#include "stats/chernoff.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace geogossip::stats {

double chernoff_upper_tail(double mu, double delta) {
  GG_CHECK_ARG(mu > 0.0, "chernoff_upper_tail: mu must be positive");
  GG_CHECK_ARG(delta > 0.0, "chernoff_upper_tail: delta must be positive");
  return std::exp(-delta * delta * mu / (2.0 + delta));
}

double chernoff_lower_tail(double mu, double delta) {
  GG_CHECK_ARG(mu > 0.0, "chernoff_lower_tail: mu must be positive");
  GG_CHECK_ARG(delta > 0.0 && delta <= 1.0,
               "chernoff_lower_tail: delta must be in (0,1]");
  return std::exp(-delta * delta * mu / 2.0);
}

double chernoff_two_sided(double mu, double delta) {
  return std::min(1.0, chernoff_upper_tail(mu, delta) +
                           chernoff_lower_tail(mu, delta));
}

double occupancy_deviation_bound(double mu, double delta, std::size_t cells) {
  GG_CHECK_ARG(cells >= 1, "occupancy_deviation_bound: need >= 1 cell");
  return std::min(1.0, static_cast<double>(cells) *
                           chernoff_two_sided(mu, delta));
}

}  // namespace geogossip::stats
