// Hop-count measurement campaigns over random source/destination pairs —
// the data behind experiment E6 (routing cost O(sqrt(n / log n))).
#ifndef GEOGOSSIP_ROUTING_ROUTE_STATS_HPP
#define GEOGOSSIP_ROUTING_ROUTE_STATS_HPP

#include <cstdint>

#include "graph/geometric_graph.hpp"
#include "stats/summary.hpp"
#include "support/rng.hpp"

namespace geogossip::routing {

struct RouteCampaignResult {
  stats::RunningStat hops;            ///< over delivered routes
  stats::RunningStat stretch;         ///< hops / (euclidean distance / r)
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dead_ends = 0;
  std::uint64_t budget_exceeded = 0;

  double delivery_rate() const noexcept {
    return attempted == 0
               ? 0.0
               : static_cast<double>(delivered) /
                     static_cast<double>(attempted);
  }
};

/// Routes `pairs` random node->node packets and accumulates hop statistics.
RouteCampaignResult measure_routes(const graph::GeometricGraph& g,
                                   std::uint64_t pairs, Rng& rng);

}  // namespace geogossip::routing

#endif  // GEOGOSSIP_ROUTING_ROUTE_STATS_HPP
