// Chernoff tail bounds for binomial occupancy counts.
//
// The paper's §3 uses "an application of the Chernoff Bound" to argue that
// every one of the ~sqrt(n) partition squares holds (1 ± 1/10)·sqrt(n)
// sensors w.h.p., which is what puts the effective mixing coefficients
// alpha_i inside (1/3, 1/2).  These helpers compute the bound side of that
// argument; experiment E8 measures the empirical side.
#ifndef GEOGOSSIP_STATS_CHERNOFF_HPP
#define GEOGOSSIP_STATS_CHERNOFF_HPP

#include <cstddef>

namespace geogossip::stats {

/// P(X >= (1+delta) mu) <= exp(-delta^2 mu / (2 + delta)) for delta > 0.
double chernoff_upper_tail(double mu, double delta);

/// P(X <= (1-delta) mu) <= exp(-delta^2 mu / 2) for delta in (0, 1].
double chernoff_lower_tail(double mu, double delta);

/// Two-sided: P(|X - mu| >= delta mu) bound by the sum of both tails.
double chernoff_two_sided(double mu, double delta);

/// Union bound over `cells` binomial counts with common mean `mu`:
/// probability that ANY cell deviates by a relative `delta`.
double occupancy_deviation_bound(double mu, double delta, std::size_t cells);

}  // namespace geogossip::stats

#endif  // GEOGOSSIP_STATS_CHERNOFF_HPP
