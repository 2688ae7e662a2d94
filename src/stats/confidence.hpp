// Confidence intervals for bench reporting.
#ifndef GEOGOSSIP_STATS_CONFIDENCE_HPP
#define GEOGOSSIP_STATS_CONFIDENCE_HPP

#include <cstdint>
#include <string>

namespace geogossip::stats {

struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  double width() const noexcept { return hi - lo; }
  bool contains(double v) const noexcept { return v >= lo && v <= hi; }
  std::string to_string(int decimals = 4) const;
};

/// Wilson score interval for a binomial proportion (successes/trials).
/// Only the standard levels {0.90, 0.95, 0.99} are supported (fixed
/// z-scores — no inverse erf dependency).
Interval proportion_confidence_interval(std::uint64_t successes,
                                        std::uint64_t trials,
                                        double confidence = 0.95);

}  // namespace geogossip::stats

#endif  // GEOGOSSIP_STATS_CONFIDENCE_HPP
