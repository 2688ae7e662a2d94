// Unit + property tests for greedy geographic routing and restricted
// flooding.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "geometry/sampling.hpp"
#include "graph/connectivity.hpp"
#include "graph/geometric_graph.hpp"
#include "graph/radius.hpp"
#include "routing/flood.hpp"
#include "routing/greedy.hpp"
#include "routing/route_stats.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::routing {
namespace {

using geometry::Vec2;
using graph::GeometricGraph;
using graph::NodeId;

GeometricGraph dense_graph(std::size_t n, std::uint64_t seed,
                           double multiplier = 2.0) {
  Rng rng(seed);
  return GeometricGraph::sample(n, multiplier, rng);
}

TEST(GreedyRouting, DeliversOnDenseConnectedGraphs) {
  const auto g = dense_graph(1500, 41);
  ASSERT_TRUE(graph::is_connected(g.adjacency()));
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<NodeId>(rng.below(g.node_count()));
    const auto dst =
        static_cast<NodeId>(rng.below_excluding(g.node_count(), src));
    const auto route = route_to_node(g, src, dst);
    EXPECT_TRUE(route.arrived()) << "trial " << trial;
    EXPECT_EQ(route.final_node, dst);
  }
}

TEST(GreedyRouting, EveryHopStrictlyCloserToTarget) {
  const auto g = dense_graph(1000, 43);
  Rng rng(44);
  for (int trial = 0; trial < 50; ++trial) {
    const auto src = static_cast<NodeId>(rng.below(g.node_count()));
    const auto dst =
        static_cast<NodeId>(rng.below_excluding(g.node_count(), src));
    std::vector<NodeId> trace;
    RouteOptions options;
    options.trace = &trace;
    const auto route = route_to_node(g, src, dst, options);
    ASSERT_TRUE(route.arrived());
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(route.hops) + 1);
    const Vec2 target = g.position(dst);
    for (std::size_t h = 1; h < trace.size(); ++h) {
      EXPECT_LT(geometry::distance(g.position(trace[h]), target),
                geometry::distance(g.position(trace[h - 1]), target));
      EXPECT_TRUE(g.adjacency().has_edge(trace[h - 1], trace[h]));
    }
  }
}

TEST(GreedyRouting, SelfRouteIsZeroHops) {
  const auto g = dense_graph(100, 45);
  const auto route = route_to_node(g, 7, 7);
  EXPECT_TRUE(route.arrived());
  EXPECT_EQ(route.hops, 0u);
  EXPECT_EQ(route.final_node, 7u);
}

TEST(GreedyRouting, CsrScanTakesTheLeastIdOnAnExactTieAndNeverAnEqualHop) {
  // Dyadic coordinates make the two candidates' squared distances to the
  // target exactly equal.  Before the switch a route on a graph with a
  // CSR scans its row: the tie goes to the least id, and a neighbour no
  // closer than the current node (1 and 2 are equidistant) is never a hop.
  const std::vector<Vec2> points{{0.125, 0.5}, {0.25, 0.625}, {0.25, 0.375}};
  const GeometricGraph g(points, 0.25);
  ASSERT_TRUE(g.adjacency().has_edge(1, 2));
  const auto route = route_to_position(g, 0, {0.875, 0.5});
  EXPECT_FALSE(g.routing_mirror_built());
  EXPECT_EQ(route.status, RouteStatus::kArrived);
  EXPECT_EQ(route.final_node, 1u);
  EXPECT_EQ(route.hops, 1u);
}

/// The CSR-row reference hop: the neighbour strictly closer to `target`
/// than `current` with the least squared distance, the least id on an
/// exact tie; `current` when none is.
NodeId csr_reference_hop(const GeometricGraph& g, NodeId current,
                         Vec2 target) {
  const auto positions = g.positions();
  double best_sq = geometry::distance_sq(positions[current], target);
  NodeId best = current;
  for (const NodeId u : g.neighbors(current)) {
    const double d_sq = geometry::distance_sq(positions[u], target);
    if (d_sq < best_sq || (d_sq == best_sq && best != current && u < best)) {
      best_sq = d_sq;
      best = u;
    }
  }
  return best;
}

/// Checks a traced route on `lazy` (routed by the grid scan: no CSR, no
/// mirror) hop for hop against the CSR-row reference on `reference`.
void expect_route_matches_reference(const GeometricGraph& reference,
                                    const std::vector<NodeId>& trace,
                                    const RouteResult& result, Vec2 target) {
  ASSERT_EQ(trace.size(), result.hops + 1u);
  for (std::size_t h = 0; h + 1 < trace.size(); ++h) {
    ASSERT_EQ(csr_reference_hop(reference, trace[h], target), trace[h + 1])
        << "hop " << h;
  }
  if (result.status != RouteStatus::kHopBudget) {
    EXPECT_EQ(csr_reference_hop(reference, trace.back(), target),
              trace.back());
  }
}

TEST(GreedyRouting, GridScanMatchesTheCsrRowHopForHop) {
  // Before a graph has a CSR, routes scan its bucket-grid window; every
  // hop must be the CSR row's, for node and position targets alike.
  for (const std::size_t n : {std::size_t{1024}, std::size_t{32768}}) {
    SCOPED_TRACE(testing::Message() << "n = " << n);
    Rng rng_lazy(95);
    Rng rng_reference(95);
    const auto lazy = GeometricGraph::sample(n, 1.2, rng_lazy);
    const auto reference = GeometricGraph::sample(n, 1.2, rng_reference);
    Rng pick(96);
    std::vector<NodeId> trace;
    RouteOptions options;
    options.trace = &trace;
    for (int k = 0; k < 150; ++k) {
      const auto src = static_cast<NodeId>(pick.below(n));
      trace.clear();
      if (k % 2 == 0) {
        const auto dst = static_cast<NodeId>(pick.below_excluding(n, src));
        const auto result = route_to_node(lazy, src, dst, options);
        expect_route_matches_reference(reference, trace, result,
                                       lazy.position(dst));
      } else {
        const Vec2 target{pick.next_double(), pick.next_double()};
        const auto result = route_to_position(lazy, src, target, options);
        expect_route_matches_reference(reference, trace, result, target);
      }
    }
    EXPECT_FALSE(lazy.adjacency_built());
    EXPECT_FALSE(lazy.routing_mirror_built());
  }
}

TEST(GreedyRouting, GridScanKeepsTheTieRuleAndTheClosedBallOnUnsortedIds) {
  // Cells are 0.25 wide and the points sit on cell edges.  Ids are not in
  // bucket order: D (id 0) lies in the column the scan visits after E's.
  // D and E are exactly equidistant from (0.5, 1) (dyadic coordinates), so
  // the hop from S must take the least id, D; C lies exactly r = 0.25
  // below S, so the closed ball makes it S's hop towards (0.5, 0).
  const std::vector<Vec2> points{{0.375, 0.625},  // 0: D
                                 {0.5, 0.25},     // 1: C
                                 {0.625, 0.625},  // 2: E
                                 {0.5, 0.5}};     // 3: S
  const Vec2 up{0.5, 1.0};
  const Vec2 down{0.5, 0.0};
  const GeometricGraph reference(points, 0.25);
  ASSERT_TRUE(reference.adjacency().has_edge(3, 1));
  ASSERT_EQ(geometry::distance_sq(points[0], up),
            geometry::distance_sq(points[2], up));
  for (const Vec2 target : {up, down}) {
    const GeometricGraph lazy(points, 0.25);
    std::vector<NodeId> trace;
    RouteOptions options;
    options.trace = &trace;
    const auto result = route_to_position(lazy, 3, target, options);
    EXPECT_FALSE(lazy.adjacency_built());
    EXPECT_EQ(result.status, RouteStatus::kArrived);
    EXPECT_EQ(result.hops, 1u);
    EXPECT_EQ(result.final_node, target == up ? 0u : 1u);
    expect_route_matches_reference(reference, trace, result, target);
  }
}

TEST(GreedyRouting, GridScanRoutesWhenTheRadiusSpansTheRegion) {
  // r = 3 on the unit square: the grid is one bucket narrower than r, and
  // every node is every other's neighbour, so each route is one hop.
  Rng rng(97);
  const auto points = geometry::sample_unit_square(64, rng);
  const GeometricGraph lazy(points, 3.0);
  const GeometricGraph reference(points, 3.0);
  ASSERT_EQ(lazy.index().side(), 1);
  std::vector<NodeId> trace;
  RouteOptions options;
  options.trace = &trace;
  for (NodeId src = 0; src < 64; src += 7) {
    const NodeId dst = (src + 31) % 64;
    trace.clear();
    const auto result = route_to_node(lazy, src, dst, options);
    EXPECT_EQ(result.status, RouteStatus::kArrived);
    EXPECT_EQ(result.hops, 1u);
    expect_route_matches_reference(reference, trace, result,
                                   lazy.position(dst));
  }
  EXPECT_FALSE(lazy.adjacency_built());
}

TEST(GreedyRouting, HopsBoundedByBudgetHeuristic) {
  const auto g = dense_graph(2000, 46);
  Rng rng(47);
  const std::uint32_t budget = default_hop_budget(g);
  for (int trial = 0; trial < 100; ++trial) {
    const auto src = static_cast<NodeId>(rng.below(g.node_count()));
    const auto dst =
        static_cast<NodeId>(rng.below_excluding(g.node_count(), src));
    const auto route = route_to_node(g, src, dst);
    ASSERT_TRUE(route.arrived());
    EXPECT_LE(route.hops, budget);
  }
}

TEST(GreedyRouting, DeadEndOnDisconnectedDeployment) {
  // Two far-apart clusters below connection range of each other.
  std::vector<Vec2> points;
  Rng rng(48);
  for (int i = 0; i < 30; ++i) {
    points.push_back({rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)});
  }
  for (int i = 0; i < 30; ++i) {
    points.push_back({rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0)});
  }
  const GeometricGraph g(points, 0.08);
  const auto route = route_to_node(g, 0, 35);
  EXPECT_FALSE(route.arrived());
  EXPECT_EQ(route.status, RouteStatus::kDeadEnd);
  EXPECT_GT(route.hops, 0u);  // made some progress before stalling
}

TEST(GreedyRouting, ExplicitHopBudgetIsRespected) {
  const auto g = dense_graph(2000, 49);
  Rng rng(50);
  RouteOptions options;
  options.max_hops = 2;
  int truncated = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto src = static_cast<NodeId>(rng.below(g.node_count()));
    const auto dst =
        static_cast<NodeId>(rng.below_excluding(g.node_count(), src));
    const auto route = route_to_node(g, src, dst, options);
    EXPECT_LE(route.hops, 2u);
    if (route.status == RouteStatus::kHopBudget) ++truncated;
  }
  EXPECT_GT(truncated, 25);  // most pairs are farther than 2 hops
}

TEST(PositionRouting, ArrivesAtLocalMinimumOfTarget) {
  const auto g = dense_graph(1200, 51);
  Rng rng(52);
  for (int trial = 0; trial < 100; ++trial) {
    const auto src = static_cast<NodeId>(rng.below(g.node_count()));
    const Vec2 target{rng.next_double(), rng.next_double()};
    const auto route = route_to_position(g, src, target);
    ASSERT_TRUE(route.arrived());
    // Terminal node is a local minimum: no neighbour is closer to target.
    const double final_dist =
        geometry::distance(g.position(route.final_node), target);
    for (const NodeId u : g.neighbors(route.final_node)) {
      EXPECT_GE(geometry::distance(g.position(u), target) + 1e-15,
                final_dist);
    }
  }
}

TEST(PositionRouting, UsuallyFindsTheGlobalNearestNodeOnDenseGraphs) {
  const auto g = dense_graph(1500, 53);
  Rng rng(54);
  int global_hits = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto src = static_cast<NodeId>(rng.below(g.node_count()));
    const Vec2 target{rng.next_double(), rng.next_double()};
    const auto route = route_to_position(g, src, target);
    ASSERT_TRUE(route.arrived());
    if (route.final_node == g.nearest_node(target)) ++global_hits;
  }
  // Greedy's local minimum coincides with the global nearest node the vast
  // majority of the time at this density (Dimakis et al.'s premise).
  EXPECT_GT(global_hits, kTrials * 80 / 100);
}

TEST(PositionRouting, HopsScaleWithDistance) {
  const auto g = dense_graph(4000, 55);
  // Route across the full diagonal vs. a short hop.
  const NodeId corner_sw = g.nearest_node({0.02, 0.02});
  const auto long_route = route_to_position(g, corner_sw, {0.98, 0.98});
  const auto short_route = route_to_position(g, corner_sw, {0.06, 0.06});
  ASSERT_TRUE(long_route.arrived());
  ASSERT_TRUE(short_route.arrived());
  EXPECT_GT(long_route.hops, 4 * (short_route.hops + 1));
  // Within a small constant of the straight-line hop count.
  const double straight =
      graph::expected_route_hops(std::sqrt(2.0) * 0.96, g.radius());
  EXPECT_LT(static_cast<double>(long_route.hops), 3.0 * straight);
  EXPECT_GT(static_cast<double>(long_route.hops), 0.8 * straight);
}

TEST(RouteValidation, OutOfRangeEndpoints) {
  const auto g = dense_graph(50, 56);
  EXPECT_THROW(route_to_node(g, 0, 99), ArgumentError);
  EXPECT_THROW(route_to_node(g, 99, 0), ArgumentError);
  EXPECT_THROW(route_to_position(g, 99, {0.5, 0.5}), ArgumentError);
}

// ---------------------------------------------------------------- Flood ----

TEST(Flood, ReachesExactlyTheSquareMembersWhenLocallyConnected) {
  const auto g = dense_graph(2000, 57);
  const geometry::Rect square({0.25, 0.25}, {0.5, 0.5});
  const auto members = g.index().points_in_rect(square);
  ASSERT_GT(members.size(), 10u);
  const auto result = flood_square(g, members.front(), square);
  // All reached nodes are members.
  const std::set<NodeId> member_set(members.begin(), members.end());
  for (const NodeId v : result.reached) {
    EXPECT_TRUE(member_set.contains(v));
  }
  // Transmission accounting: one broadcast per reached node.
  EXPECT_EQ(result.transmissions, result.reached.size());
  EXPECT_EQ(result.reached.size() + result.unreached_members,
            members.size());
  // At this density the in-square subgraph is connected.
  EXPECT_EQ(result.unreached_members, 0u);
}

TEST(Flood, ReportsUnreachedOnSparseSquare) {
  // A deployment whose induced square subgraph is disconnected.
  const std::vector<Vec2> points{{0.10, 0.10}, {0.12, 0.12},
                                 {0.40, 0.40},  // far member, unreachable
                                 {0.9, 0.9}};
  const GeometricGraph g(points, 0.05);
  const geometry::Rect square({0.0, 0.0}, {0.5, 0.5});
  const auto result = flood_square(g, 0, square);
  EXPECT_EQ(result.reached.size(), 2u);
  EXPECT_EQ(result.unreached_members, 1u);
}

TEST(Flood, RequiresStartInsideSquare) {
  const auto g = dense_graph(100, 58);
  const geometry::Rect square({0.0, 0.0}, {0.1, 0.1});
  const auto outside = g.nearest_node({0.9, 0.9});
  EXPECT_THROW(flood_square(g, outside, square), ArgumentError);
}

// ----------------------------------------------------------- RouteStats ----

TEST(RouteStats, CampaignDeliversAndMeasures) {
  const auto g = dense_graph(1500, 59);
  Rng rng(60);
  const auto result = measure_routes(g, 300, rng);
  EXPECT_EQ(result.attempted, 300u);
  EXPECT_GT(result.delivery_rate(), 0.99);
  EXPECT_GT(result.hops.mean(), 1.0);
  // Stretch (hops per straight-line radius-unit) is a small constant.
  EXPECT_LT(result.stretch.mean(), 3.0);
  EXPECT_GE(result.stretch.mean(), 1.0);
}

TEST(RouteStats, HopsGrowWithN) {
  // O(sqrt(n / log n)) growth: quadrupling n should grow mean hops by
  // roughly 2x (within loose bounds).
  Rng rng_a(63);
  Rng rng_b(64);
  const auto small = GeometricGraph::sample(1000, 2.0, rng_a);
  const auto large = GeometricGraph::sample(4000, 2.0, rng_b);
  Rng rng_c(65);
  Rng rng_d(66);
  const double hops_small = measure_routes(small, 200, rng_c).hops.mean();
  const double hops_large = measure_routes(large, 200, rng_d).hops.mean();
  const double ratio = hops_large / hops_small;
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.6);
}

}  // namespace
}  // namespace geogossip::routing
