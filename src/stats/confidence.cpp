#include "stats/confidence.hpp"

#include <cmath>
#include <sstream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip::stats {

namespace {

double z_score_for(double confidence) {
  if (std::abs(confidence - 0.90) < 1e-9) return 1.6448536269514722;
  if (std::abs(confidence - 0.95) < 1e-9) return 1.959963984540054;
  if (std::abs(confidence - 0.99) < 1e-9) return 2.5758293035489004;
  throw geogossip::ArgumentError(
      "confidence level must be one of 0.90 / 0.95 / 0.99");
}

}  // namespace

std::string Interval::to_string(int decimals) const {
  std::ostringstream os;
  os << '[' << format_fixed(lo, decimals) << ", "
     << format_fixed(hi, decimals) << ']';
  return os.str();
}

Interval proportion_confidence_interval(std::uint64_t successes,
                                        std::uint64_t trials,
                                        double confidence) {
  GG_CHECK_ARG(trials > 0, "proportion CI requires trials > 0");
  GG_CHECK_ARG(successes <= trials, "successes cannot exceed trials");
  const double z = z_score_for(confidence);
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return Interval{std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace geogossip::stats
