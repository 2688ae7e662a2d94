// Uniformity statistics of categorical counts: the total-variation
// distance and the chi-squared statistic against the uniform distribution,
// which the rejection-sampling probe (E9) reports for the sampled targets.
#ifndef GEOGOSSIP_STATS_HISTOGRAM_HPP
#define GEOGOSSIP_STATS_HISTOGRAM_HPP

#include <cstdint>
#include <vector>

namespace geogossip::stats {

/// Total-variation distance between an empirical distribution over k
/// categories (counts) and the uniform distribution over those categories.
double tv_distance_from_uniform(const std::vector<std::uint64_t>& counts);

/// Pearson chi-squared statistic of counts against the uniform expectation.
/// (Compare with k-1 degrees of freedom.)
double chi_squared_uniform(const std::vector<std::uint64_t>& counts);

}  // namespace geogossip::stats

#endif  // GEOGOSSIP_STATS_HISTOGRAM_HPP
