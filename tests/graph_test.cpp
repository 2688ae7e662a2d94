// Unit + property tests for the graph module: CSR, G(n,r) construction,
// connectivity, radius helpers, the lazy CSR and routing mirror, and their
// kernels against brute-force references and pinned bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "geometry/sampling.hpp"
#include "graph/connectivity.hpp"
#include "graph/csr.hpp"
#include "graph/geometric_graph.hpp"
#include "graph/radius.hpp"
#include "obs/telemetry.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace geogossip::graph {
namespace {

using geometry::Vec2;

// ------------------------------------------------------------------ CSR ----

TEST(Csr, FromEdgesBasics) {
  const auto g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  const auto nbrs = g.neighbors(1);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Csr, DegreeStats) {
  const auto g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {1, 3}});
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 6.0 / 4.0);
}

TEST(Csr, RejectsBadEdges) {
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 0}}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 5}}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 1}, {1, 0}}), ArgumentError);
}

TEST(Csr, FromAdjacencyValidatesSymmetry) {
  const std::vector<std::vector<NodeId>> good{{1}, {0, 2}, {1}};
  const auto g = CsrGraph::from_adjacency(good);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  const std::vector<std::vector<NodeId>> asymmetric{{1}, {}};
  EXPECT_THROW(CsrGraph::from_adjacency(asymmetric), ArgumentError);
  const std::vector<std::vector<NodeId>> self_loop{{0}};
  EXPECT_THROW(CsrGraph::from_adjacency(self_loop), ArgumentError);
}

TEST(Csr, FromPartsAcceptsValidLayoutAndRejectsBrokenOnes) {
  // 0-1, 1-2 as a hand-laid CSR.
  const auto g = CsrGraph::from_parts({0, 1, 3, 4}, {1, 0, 2, 1});
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));

  EXPECT_THROW(CsrGraph::from_parts({}, {}), ArgumentError);
  // offsets must start at 0 and end at targets.size().
  EXPECT_THROW(CsrGraph::from_parts({1, 2}, {0}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 2}, {1}), ArgumentError);
  // non-monotone offsets / unsorted row / duplicate / self-loop / range.
  EXPECT_THROW(CsrGraph::from_parts({0, 2, 1, 4}, {1, 2, 0, 0}),
               ArgumentError);
  // Non-monotone with an interior offset PAST targets.size(): must be
  // rejected without ever forming an out-of-bounds row iterator.
  EXPECT_THROW(CsrGraph::from_parts({0, 5, 2, 2}, {1, 0}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 2, 3, 4}, {2, 1, 0, 0}),
               ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 2, 2}, {1, 1}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 1, 2}, {0, 0}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 1, 2}, {5, 0}), ArgumentError);
}

/// Re-lays `g`'s CSR out as plain offsets and targets and runs them
/// through from_parts' full validation; the result must equal `g`'s rows.
void expect_parts_pass_from_parts(const GeometricGraph& g) {
  const auto offsets = g.adjacency().offsets();
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto row = g.neighbors(v);
    targets.insert(targets.end(), row.begin(), row.end());
  }
  const auto adopted = CsrGraph::from_parts({offsets.begin(), offsets.end()},
                                            std::move(targets));
  ASSERT_EQ(adopted.node_count(), g.node_count());
  ASSERT_EQ(adopted.edge_count(), g.adjacency().edge_count());
  ASSERT_GT(adopted.edge_count(), 0u);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto a = adopted.neighbors(v);
    const auto b = g.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << v;
  }
}

TEST(Csr, SampledGraphPartsPassFromParts) {
  // GeometricGraph checks its rows inside its own build instead of
  // through from_parts; the CSR it adopts must still pass from_parts' full
  // validation — on the paper's deployment (renumbered by sample(), and
  // raw, where pass 2 sorts its rows) and on the stress deployments,
  // serial and pooled.
  const ThreadPool pool(4);
  const auto rect = geometry::Rect::unit_square();
  for (const ThreadPool* build_pool : {static_cast<const ThreadPool*>(nullptr),
                                       &pool}) {
    SCOPED_TRACE(build_pool == nullptr ? "serial" : "pooled");
    Rng rng(1300);
    expect_parts_pass_from_parts(
        GeometricGraph::sample(900, 1.5, rng, {.pool = build_pool}));
    const std::vector<Vec2> deployments[] = {
        geometry::sample_unit_square(900, rng),
        geometry::sample_jittered_grid(900, rect, rng),
        geometry::sample_clustered(900, rect, 5, 0.08, rng)};
    for (const auto& points : deployments) {
      expect_parts_pass_from_parts(
          GeometricGraph(points, paper_radius(points.size(), 1.5), rect,
                         {.pool = build_pool}));
    }
  }
}

TEST(Csr, NodeCountCeilingIsExplicit) {
  // NodeId is 32-bit: n >= 2^32 must be rejected with a clear error, not
  // silently truncated.  The check itself is cheap and allocation-free.
  EXPECT_NO_THROW(CsrGraph::check_node_count(CsrGraph::max_node_count()));
  EXPECT_THROW(CsrGraph::check_node_count(std::uint64_t{1} << 32),
               ArgumentError);
  EXPECT_THROW(CsrGraph::check_node_count((std::uint64_t{1} << 32) + 7),
               ArgumentError);
  // The graph builders fail before allocating anything n-sized.
  Rng rng(7);
  EXPECT_THROW(
      GeometricGraph::sample(std::size_t{1} << 32, 2.0, rng),
      ArgumentError);
}

TEST(Csr, EmptyGraph) {
  const auto g = CsrGraph::from_edges(0, {});
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.min_degree(), 0u);
}

// ------------------------------------------------------------ UnionFind ----

TEST(UnionFind, MergesAndCounts) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_EQ(uf.set_count(), 3u);
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_FALSE(uf.same(0, 3));
  EXPECT_EQ(uf.size_of(2), 3u);
  EXPECT_EQ(uf.size_of(4), 1u);
  EXPECT_THROW(uf.find(5), ArgumentError);
}

// --------------------------------------------------------- Connectivity ----

TEST(Connectivity, ComponentsOnKnownGraph) {
  // Two triangles plus an isolated node.
  const auto g = CsrGraph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const auto labels = connected_components(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[6], labels[0]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(largest_component_size(g), 3u);
}

TEST(Connectivity, PathGraphDistancesAndDiameter) {
  const auto g = CsrGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_TRUE(is_connected(g));
  const auto dist = bfs_distances(g, 0);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
  EXPECT_EQ(hop_diameter(g), 4u);
}

TEST(Connectivity, BfsUnreachableIsMarked) {
  const auto g = CsrGraph::from_edges(3, {{0, 1}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW(hop_diameter(g), ArgumentError);
}

TEST(Connectivity, SingletonIsConnected) {
  const auto g = CsrGraph::from_edges(1, {});
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(hop_diameter(g), 0u);
}

// --------------------------------------------------------------- Radius ----

TEST(Radius, FormulasAndMonotonicity) {
  EXPECT_NEAR(threshold_radius(1000),
              std::sqrt(std::log(1000.0) / (std::numbers::pi * 1000.0)),
              1e-12);
  EXPECT_GT(paper_radius(1000), threshold_radius(1000));
  EXPECT_GT(paper_radius(1000), paper_radius(10000));  // shrinks with n
  EXPECT_NEAR(expected_interior_degree(1000, paper_radius(1000)),
              std::numbers::pi * 4.0 * std::log(1000.0), 1e-9);
  EXPECT_DOUBLE_EQ(expected_route_hops(1.0, 0.25), 4.0);
  EXPECT_THROW(paper_radius(1), ArgumentError);
}

// -------------------------------------------------------- GeometricGraph ----

class GrgProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GrgProperty, EdgesMatchBruteForceDistanceCheck) {
  const std::size_t n = GetParam();
  Rng rng(300 + n);
  const auto points = geometry::sample_unit_square(n, rng);
  const double r = paper_radius(n, 1.5);
  const GeometricGraph g(points, r);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool close = geometry::distance(points[i], points[j]) <= r;
      EXPECT_EQ(g.adjacency().has_edge(static_cast<NodeId>(i),
                                       static_cast<NodeId>(j)),
                close)
          << "pair (" << i << ',' << j << ')';
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GrgProperty,
                         ::testing::Values(2, 10, 64, 200));

TEST(GeometricGraph, SampleIsConnectedAtPaperRadius) {
  // Multiplier 2 keeps moderate deployments connected in essentially every
  // seed; verify across several seeds.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const auto g = GeometricGraph::sample(800, 2.0, rng);
    EXPECT_TRUE(is_connected(g.adjacency())) << "seed " << seed;
  }
}

TEST(GeometricGraph, NearestNodeMatchesBruteForce) {
  Rng rng(31);
  const auto g = GeometricGraph::sample(300, 2.0, rng);
  for (int probe = 0; probe < 40; ++probe) {
    const Vec2 q{rng.next_double(), rng.next_double()};
    const NodeId got = g.nearest_node(q);
    double best = 1e18;
    NodeId expected = 0;
    for (NodeId i = 0; i < g.node_count(); ++i) {
      const double d = geometry::distance_sq(g.position(i), q);
      if (d < best) {
        best = d;
        expected = i;
      }
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(GeometricGraph, DegreeNearExpectedInterior) {
  Rng rng(32);
  const std::size_t n = 3000;
  const auto g = GeometricGraph::sample(n, 2.0, rng);
  const double expected = expected_interior_degree(n, g.radius());
  // Mean degree is below the interior expectation (boundary effects) but
  // within a factor ~0.7..1.0.
  EXPECT_GT(g.adjacency().mean_degree(), 0.6 * expected);
  EXPECT_LT(g.adjacency().mean_degree(), 1.05 * expected);
}

TEST(GeometricGraph, SummaryIsInformative) {
  Rng rng(33);
  const auto g = GeometricGraph::sample(100, 2.0, rng);
  const std::string text = g.summary();
  EXPECT_NE(text.find("G(n=100"), std::string::npos);
  EXPECT_NE(text.find("edges"), std::string::npos);
}

TEST(GeometricGraph, Validation) {
  EXPECT_THROW(GeometricGraph({}, 0.1), ArgumentError);
  EXPECT_THROW(GeometricGraph({{0.5, 0.5}}, 0.0), ArgumentError);
  Rng rng(1);
  EXPECT_THROW(GeometricGraph::sample(1, 2.0, rng), ArgumentError);
}

// ----------------------------------------- two-pass build / lazy mirror ----

/// Full structural equality of two graphs built from the same points:
/// CSR offsets + per-node neighbour lists, then (after forcing both
/// mirrors) the routing-ordered ids and radii, byte for byte.
void expect_identical_graphs(const GeometricGraph& a,
                             const GeometricGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.adjacency().edge_count(), b.adjacency().edge_count());
  const auto offsets_a = a.adjacency().offsets();
  const auto offsets_b = b.adjacency().offsets();
  ASSERT_TRUE(std::equal(offsets_a.begin(), offsets_a.end(),
                         offsets_b.begin(), offsets_b.end()));
  a.ensure_routing_mirror();
  b.ensure_routing_mirror();
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "node " << v;
    const auto ia = a.routing_ids(v);
    const auto ib = b.routing_ids(v);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()))
        << "routing ids of node " << v;
    const auto ra = a.routing_radii(v);
    const auto rb = b.routing_radii(v);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "routing radii of node " << v;
  }
}

/// FNV-1a over the CSR offsets and targets and the mirror's ids and radii.
std::uint64_t graph_digest(const GeometricGraph& g) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  };
  const auto offsets = g.adjacency().offsets();
  mix(offsets.data(), offsets.size_bytes());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    mix(g.neighbors(v).data(), g.neighbors(v).size_bytes());
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    mix(g.routing_ids(v).data(), g.routing_ids(v).size_bytes());
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    mix(g.routing_radii(v).data(), g.routing_radii(v).size_bytes());
  }
  return hash;
}

TEST(GeometricGraph, ParallelBuildBitIdenticalToSerialAcrossSeeds) {
  // The acceptance property of the two-pass build: any thread count
  // produces byte-identical CSR and routing-mirror arrays.  1 vs 4
  // threads (and an uneven 3) across several seeds and a non-trivial n.
  const ThreadPool pool4(4);
  const ThreadPool pool3(3);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng_serial(seed);
    Rng rng_p4(seed);
    Rng rng_p3(seed);
    const auto serial = GeometricGraph::sample(700, 1.5, rng_serial);
    const auto par4 =
        GeometricGraph::sample(700, 1.5, rng_p4, {.pool = &pool4});
    const auto par3 =
        GeometricGraph::sample(700, 1.5, rng_p3, {.pool = &pool3});
    expect_identical_graphs(serial, par4);
    expect_identical_graphs(serial, par3);
  }
}

TEST(GeometricGraph, ParallelBuildMatchesSerialOnArbitraryPointSets) {
  // Raw constructor (no spatial renumbering, so the grid's visit order is
  // NOT presorted and pass 2 exercises its per-row sort), clustered
  // points included.
  Rng rng(91);
  auto points = geometry::sample_unit_square(500, rng);
  for (std::size_t i = 0; i < 60; ++i) {  // a dense cluster
    points.push_back({0.5 + 1e-4 * static_cast<double>(i % 8), 0.5});
  }
  const double r = paper_radius(points.size(), 1.5);
  const ThreadPool pool(4);
  const GeometricGraph serial(points, r);
  const GeometricGraph parallel(points, r, geometry::Rect::unit_square(),
                                {.pool = &pool});
  expect_identical_graphs(serial, parallel);
}

/// One route request of the laziness test: to a node, or to a position.
struct RouteRequest {
  NodeId source = 0;
  bool to_node = true;
  NodeId destination = 0;
  Vec2 target;
};

routing::RouteResult route(const GeometricGraph& g, const RouteRequest& req,
                           std::vector<NodeId>& trace) {
  trace.clear();
  const routing::RouteOptions options{.trace = &trace};
  return req.to_node
             ? routing::route_to_node(g, req.source, req.destination, options)
             : routing::route_to_position(g, req.source, req.target, options);
}

TEST(GeometricGraph, RoutingMirrorIsLazyAndEagerOptionForcesIt) {
  // The mirror waits until the graph's routed hops reach the switch
  // threshold: every route below it scans the CSR row and leaves the
  // mirror unbuilt, the first route past it builds the mirror, and the
  // eager option builds it up front.  Routes on either side of the switch
  // take exactly the hops they take on the eager graph.
  const Vec2 edges_and_corners[] = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0},
                                    {1.0, 1.0}, {0.5, 0.0}, {0.0, 0.5},
                                    {1.0, 0.5}, {0.5, 1.0}};
  for (const bool clustered : {false, true}) {
    for (std::uint64_t seed = 55; seed < 58; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << (clustered ? "clustered" : "uniform") << " seed "
                   << seed);
      Rng rng(seed);
      const auto points =
          clustered ? geometry::sample_clustered(
                          400, geometry::Rect::unit_square(), 5, 0.08, rng)
                    : geometry::sample_unit_square(400, rng);
      const double r = paper_radius(points.size(), 2.0);
      const GeometricGraph lazy(points, r);
      const GeometricGraph eager(points, r, geometry::Rect::unit_square(),
                                 {.eager_routing_mirror = true});
      EXPECT_FALSE(lazy.routing_mirror_built());
      EXPECT_TRUE(eager.routing_mirror_built());
      const std::uint64_t switch_hops = routing::mirror_switch_hops(lazy);
      ASSERT_GT(switch_hops, 0u);

      Rng pick(seed * 7);
      const auto n = static_cast<NodeId>(lazy.node_count());
      std::uint64_t csr_routes = 0;
      std::uint64_t csr_hops = 0;
      std::uint64_t mirror_routes = 0;
      std::vector<NodeId> trace_lazy;
      std::vector<NodeId> trace_eager;
      for (std::uint64_t k = 0; mirror_routes < 200; ++k) {
        ASSERT_LT(k, 100000u) << "the switch never came";
        RouteRequest req;
        req.source = static_cast<NodeId>(pick.below(n));
        switch (k % 3) {
          case 0:
            req.destination =
                static_cast<NodeId>(pick.below_excluding(n, req.source));
            break;
          case 1:
            req.to_node = false;
            req.target = edges_and_corners[(k / 3) % 8];
            break;
          default:
            req.to_node = false;
            req.target = {pick.next_double(), pick.next_double()};
            break;
        }
        const bool csr_phase = lazy.unmirrored_hops() < switch_hops;
        const auto via_lazy = route(lazy, req, trace_lazy);
        const auto via_eager = route(eager, req, trace_eager);
        ASSERT_EQ(via_lazy.status, via_eager.status) << "route " << k;
        ASSERT_EQ(via_lazy.hops, via_eager.hops) << "route " << k;
        ASSERT_EQ(via_lazy.final_node, via_eager.final_node) << "route " << k;
        ASSERT_EQ(trace_lazy, trace_eager) << "route " << k;
        ASSERT_EQ(lazy.routing_mirror_built(), !csr_phase) << "route " << k;
        if (csr_phase) {
          ++csr_routes;
          csr_hops += via_lazy.hops;
        } else {
          ++mirror_routes;
        }
      }
      // Routes below the threshold left the mirror unbuilt until the tally
      // crossed it; only CSR-phase hops were tallied, and never on the
      // eager graph.
      EXPECT_GT(csr_routes, 100u);
      EXPECT_EQ(lazy.unmirrored_hops(), csr_hops);
      EXPECT_GE(csr_hops, switch_hops);
      EXPECT_EQ(eager.unmirrored_hops(), 0u);
      expect_identical_graphs(lazy, eager);
    }
  }
}

TEST(GeometricGraph, MirrorSwitchWaitsLongerOnceTheGraphHasACsr) {
  // Without a CSR the switch replaces grid-scan hops and builds CSR and
  // mirror: an eighth of a hop per expected arc.  Once a neighbour read
  // has built the CSR it replaces CSR-row hops and builds the mirror
  // alone: half a hop per expected arc, and no mirror before that.
  constexpr std::size_t kN = 2048;
  Rng rng(81);
  const auto g = GeometricGraph::sample(kN, 1.2, rng);
  const double arcs = static_cast<double>(kN) *
                      expected_interior_degree(kN, g.radius());
  EXPECT_EQ(routing::mirror_switch_hops(g),
            static_cast<std::uint64_t>(std::ceil(arcs / 8.0)));
  ASSERT_GT(g.degree(0), 0u);  // builds the CSR
  const std::uint64_t switch_hops = routing::mirror_switch_hops(g);
  EXPECT_EQ(switch_hops, static_cast<std::uint64_t>(std::ceil(arcs / 2.0)));
  Rng pick(82);
  for (bool below = true; below;) {
    below = g.unmirrored_hops() < switch_hops;
    const auto src = static_cast<NodeId>(pick.below(kN));
    routing::route_to_node(g, src,
                           static_cast<NodeId>(pick.below_excluding(kN, src)));
    ASSERT_EQ(g.routing_mirror_built(), !below);
  }
}

TEST(GeometricGraph, ConcurrentRoutesCrossTheSwitchOnce) {
  // Replicates route on their own graph, but the graph is shared-const:
  // routes from several threads may read the tally, scan the CSR row and
  // trigger the one mirror build at the same time (a race here is a
  // ThreadSanitizer finding).  Every route must match the eager graph's.
  Rng rng_lazy(77);
  Rng rng_eager(77);
  const ThreadPool pool(4);
  const auto lazy = GeometricGraph::sample(500, 2.0, rng_lazy);
  const auto eager = GeometricGraph::sample(500, 2.0, rng_eager,
                                            {.eager_routing_mirror = true});
  constexpr std::size_t kChunks = 16;
  constexpr std::size_t kPerChunk = 600;
  // Read before the routes: once the switch has built the CSR, the
  // threshold is the one for a graph with a CSR.
  const std::uint64_t switch_hops = routing::mirror_switch_hops(lazy);
  std::vector<std::pair<NodeId, NodeId>> pairs(kChunks * kPerChunk);
  Rng pick(78);
  for (auto& [src, dst] : pairs) {
    src = static_cast<NodeId>(pick.below(500));
    dst = static_cast<NodeId>(pick.below_excluding(500, src));
  }
  std::vector<routing::RouteResult> results(pairs.size());
  pool.run(kChunks, [&](std::size_t chunk) {
    for (std::size_t k = chunk * kPerChunk; k < (chunk + 1) * kPerChunk;
         ++k) {
      results[k] = routing::route_to_node(lazy, pairs[k].first,
                                          pairs[k].second);
    }
  });
  EXPECT_TRUE(lazy.routing_mirror_built());
  EXPECT_GE(lazy.unmirrored_hops(), switch_hops);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto expected =
        routing::route_to_node(eager, pairs[k].first, pairs[k].second);
    ASSERT_EQ(results[k].status, expected.status) << "route " << k;
    ASSERT_EQ(results[k].hops, expected.hops) << "route " << k;
    ASSERT_EQ(results[k].final_node, expected.final_node) << "route " << k;
  }
  expect_identical_graphs(lazy, eager);
}

TEST(GeometricGraph, CsrIsBuiltOnTheFirstNeighbourRead) {
  // Construction builds the points and the bucket grid only; routing below
  // the mirror switch scans the grid, and nearest-node queries use it, so
  // neither builds the CSR.  The first neighbour read does, once, with the
  // bytes an eagerly built graph has.
  Rng rng(90);
  const auto g = GeometricGraph::sample(2000, 1.2, rng);
  EXPECT_FALSE(g.adjacency_built());
  Rng pick(91);
  for (int k = 0; k < 50; ++k) {
    const auto src = static_cast<NodeId>(pick.below(2000));
    (void)routing::route_to_node(
        g, src, static_cast<NodeId>(pick.below_excluding(2000, src)));
    (void)routing::route_to_position(g, src,
                                     {pick.next_double(), pick.next_double()});
  }
  (void)g.nearest_node({0.25, 0.75});
  EXPECT_FALSE(g.adjacency_built());
  EXPECT_FALSE(g.routing_mirror_built());
  EXPECT_GT(g.unmirrored_hops(), 0u);

  const CsrGraph& csr = g.adjacency();
  EXPECT_TRUE(g.adjacency_built());
  EXPECT_EQ(&g.adjacency(), &csr);
  EXPECT_EQ(g.neighbors(7).data(), csr.neighbors(7).data());
  EXPECT_FALSE(g.routing_mirror_built());
  Rng eager_rng(90);
  const auto eager = GeometricGraph::sample(2000, 1.2, eager_rng,
                                            {.eager_routing_mirror = true});
  EXPECT_TRUE(eager.adjacency_built());
  expect_identical_graphs(g, eager);
}

TEST(GeometricGraph, ConcurrentFirstReadsBuildTheCsrOnce) {
  // Four threads hit a fresh shared graph at once: neighbour reads, the
  // whole adjacency and greedy routes (which scan the grid until the CSR
  // exists, then its rows).  The CSR is built once — one build counter
  // tick, one address — and every thread reads the same bytes, those of a
  // graph read on one thread.  A race here is a ThreadSanitizer finding.
  struct ObsOn {
    ObsOn() {
      obs::reset();
      obs::set_enabled(true);
    }
    ~ObsOn() {
      obs::set_enabled(false);
      obs::reset();
    }
  };
  Rng rng(92);
  const auto shared = GeometricGraph::sample(6000, 1.2, rng);
  Rng reference_rng(92);
  const auto reference = GeometricGraph::sample(6000, 1.2, reference_rng);
  const std::uint64_t expected = graph_digest(reference);

  constexpr int kThreads = 4;
  std::vector<const CsrGraph*> seen(kThreads, nullptr);
  std::vector<std::uint64_t> digests(kThreads, 0);
  std::vector<std::vector<routing::RouteResult>> routes(kThreads);
  std::uint64_t builds = 0;
  {
    const ObsOn obs_on;
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        Rng pick(93 + static_cast<std::uint64_t>(t));
        for (int k = 0; k < 40; ++k) {
          const auto src = static_cast<NodeId>(pick.below(6000));
          routes[t].push_back(routing::route_to_node(
              shared, src,
              static_cast<NodeId>(pick.below_excluding(6000, src))));
          if (k == t) (void)shared.neighbors(src);
        }
        seen[t] = &shared.adjacency();
        digests[t] = graph_digest(shared);
      });
    }
    for (std::thread& thread : threads) thread.join();
    builds = obs::counter_totals().at("graph.adjacency_builds");
  }
#if !defined(GEOGOSSIP_OBS_DISABLE)
  EXPECT_EQ(builds, 1u);
#endif
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    EXPECT_EQ(digests[t], expected) << "thread " << t;
    Rng pick(93 + static_cast<std::uint64_t>(t));
    for (const routing::RouteResult& got : routes[t]) {
      const auto src = static_cast<NodeId>(pick.below(6000));
      const auto want = routing::route_to_node(
          reference, src,
          static_cast<NodeId>(pick.below_excluding(6000, src)));
      ASSERT_EQ(got.status, want.status) << "thread " << t;
      ASSERT_EQ(got.hops, want.hops) << "thread " << t;
      ASSERT_EQ(got.final_node, want.final_node) << "thread " << t;
    }
  }
}

TEST(GeometricGraph, MovedGraphKeepsItsIndex) {
  // The bucket grid references the point buffer, which a move keeps: a
  // graph moved to the heap before its first neighbour read still builds
  // its CSR from the right points and answers nearest-node queries.
  Rng rng_a(94);
  Rng rng_b(94);
  const auto in_place = GeometricGraph::sample(700, 1.2, rng_a);
  const auto moved =
      std::make_unique<GeometricGraph>(GeometricGraph::sample(700, 1.2, rng_b));
  EXPECT_EQ(moved->nearest_node({0.3, 0.7}), in_place.nearest_node({0.3, 0.7}));
  expect_identical_graphs(*moved, in_place);
}

TEST(GeometricGraph, NonRoutingUseNeverBuildsTheMirror) {
  Rng rng(66);
  const auto g = GeometricGraph::sample(300, 2.0, rng);
  // The measurement-style workload: degrees, neighbours, nearest queries.
  (void)g.adjacency().mean_degree();
  (void)g.neighbors(0);
  (void)g.nearest_node({0.25, 0.75});
  (void)g.summary();
  EXPECT_FALSE(g.routing_mirror_built());
}

TEST(GeometricGraph, SubThresholdRadiusDisconnects) {
  // Far below the Gupta-Kumar threshold the graph shatters — the fixture
  // behind the connectivity experiment E7.
  Rng rng(34);
  const auto points = geometry::sample_unit_square(1000, rng);
  const GeometricGraph g(points, 0.25 * threshold_radius(1000));
  EXPECT_FALSE(is_connected(g.adjacency()));
  EXPECT_LT(largest_component_size(g.adjacency()), 500u);
}

// ------------------------------------- kernels against their definition ----

/// The closed-ball adjacency by an O(n^2) scan: row i lists, ascending,
/// every j != i with distance_sq(points[j], points[i]) <= r * r.
void expect_csr_matches_brute_force(const GeometricGraph& g) {
  const auto& points = g.points();
  const double r_sq = g.radius() * g.radius();
  std::vector<NodeId> expected;
  for (NodeId i = 0; i < g.node_count(); ++i) {
    expected.clear();
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (j != i && geometry::distance_sq(points[j], points[i]) <= r_sq) {
        expected.push_back(j);
      }
    }
    const auto row = g.neighbors(i);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), expected.begin(),
                           expected.end()))
        << "node " << i << ": degree " << row.size() << ", expected "
        << expected.size();
  }
}

/// The routing mirror from its definition: each neighbour's annulus is the
/// largest a < K with d_sq <= (r * (K - a) / K)^2 (0 when none), found by
/// a linear scan of the edges; a row lists annulus 0 first, each annulus
/// in CSR order, and pairs each entry with its annulus's outer radius
/// rounded up to float.  Also checks what greedy pruning relies on: radii
/// never increase along a row and never undercut the true distance.
void expect_mirror_matches_reference(const GeometricGraph& g) {
  constexpr int kAnnuli = GeometricGraph::kRoutingAnnuli;
  double edge_sq[kAnnuli];
  float bound_up[kAnnuli];
  for (int a = 0; a < kAnnuli; ++a) {
    const double edge = g.radius() * static_cast<double>(kAnnuli - a) / kAnnuli;
    edge_sq[a] = edge * edge;
    bound_up[a] = static_cast<float>(edge);
    if (static_cast<double>(bound_up[a]) < edge) {
      bound_up[a] = std::nextafter(bound_up[a],
                                   std::numeric_limits<float>::infinity());
    }
  }
  const auto& points = g.points();
  std::vector<int> annulus;
  std::vector<NodeId> ids;
  std::vector<float> radii;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto row = g.neighbors(v);
    annulus.assign(row.size(), 0);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const double d_sq = geometry::distance_sq(points[v], points[row[k]]);
      for (int a = 0; a < kAnnuli; ++a) {
        if (d_sq <= edge_sq[a]) annulus[k] = a;
      }
    }
    ids.clear();
    radii.clear();
    for (int a = 0; a < kAnnuli; ++a) {
      for (std::size_t k = 0; k < row.size(); ++k) {
        if (annulus[k] != a) continue;
        ids.push_back(row[k]);
        radii.push_back(bound_up[a]);
      }
    }
    const auto got_ids = g.routing_ids(v);
    const auto got_radii = g.routing_radii(v);
    ASSERT_EQ(got_ids.size(), ids.size()) << "node " << v;
    ASSERT_EQ(got_radii.size(), radii.size()) << "node " << v;
    ASSERT_EQ(std::memcmp(got_ids.data(), ids.data(), got_ids.size_bytes()),
              0)
        << "routing ids of node " << v;
    ASSERT_EQ(
        std::memcmp(got_radii.data(), radii.data(), got_radii.size_bytes()),
        0)
        << "routing radii of node " << v;
    for (std::size_t k = 0; k < got_ids.size(); ++k) {
      if (k > 0) {
        ASSERT_LE(got_radii[k], got_radii[k - 1]) << "node " << v;
      }
      ASSERT_GE(static_cast<double>(got_radii[k]),
                geometry::distance(points[v], points[got_ids[k]]))
          << "node " << v << ", neighbour " << got_ids[k];
    }
  }
}

/// Uniform points plus the cases a kernel gets wrong at the boundary:
/// three coincident points, a pair at exactly distance r and a point one
/// ulp beyond it.  r = 1/8 keeps those distances exact in double.
std::vector<Vec2> boundary_point_set(Rng& rng, double r) {
  auto points = geometry::sample_unit_square(400, rng);
  for (int copy = 0; copy < 3; ++copy) points.push_back({0.3, 0.7});
  const Vec2 anchor{0.25, 0.5};
  const Vec2 on_edge{0.25 + r, 0.5};
  const Vec2 beyond{std::nextafter(on_edge.x, 1.0), 0.5};
  EXPECT_EQ(geometry::distance_sq(on_edge, anchor), r * r);
  EXPECT_GT(geometry::distance_sq(beyond, anchor), r * r);
  points.insert(points.end(), {anchor, on_edge, beyond});
  return points;
}

TEST(GeometricGraph, CsrMatchesABruteForceClosedBallScan) {
  const ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(seed);
    expect_csr_matches_brute_force(GeometricGraph::sample(600, 1.2, rng));
    Rng rng_pooled(seed);
    expect_csr_matches_brute_force(
        GeometricGraph::sample(600, 1.2, rng_pooled, {.pool = &pool}));
  }

  // Raw constructor: no spatial renumbering, boundary pairs included.
  const double r = 0.125;
  Rng rng(17);
  const auto points = boundary_point_set(rng, r);
  const auto n = static_cast<NodeId>(points.size());
  for (const ThreadPool* build_pool : {static_cast<const ThreadPool*>(nullptr),
                                       &pool}) {
    const GeometricGraph g(points, r, geometry::Rect::unit_square(),
                           {.pool = build_pool});
    expect_csr_matches_brute_force(g);
    // anchor, on_edge, beyond are the last three points.
    EXPECT_TRUE(g.adjacency().has_edge(n - 3, n - 2));
    EXPECT_FALSE(g.adjacency().has_edge(n - 3, n - 1));
    EXPECT_TRUE(g.adjacency().has_edge(400, 401));  // coincident
  }
}

TEST(GeometricGraph, RoutingMirrorMatchesItsDefinition) {
  const ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(seed);
    expect_mirror_matches_reference(GeometricGraph::sample(2000, 1.2, rng));
  }
  Rng rng(17);
  const auto points = boundary_point_set(rng, 0.125);
  expect_mirror_matches_reference(GeometricGraph(points, 0.125));

  // Neighbours on every annulus edge r * (K - a) / K and one ulp to either
  // side, on both sides of a centre node: there the distance-based guess
  // of the annulus is off by one and the exact comparisons must settle
  // it.  The dyadic radius puts the middle point exactly on the edge; the
  // paper radius puts it within rounding of it.
  constexpr int kAnnuli = GeometricGraph::kRoutingAnnuli;
  for (const double r : {0.125, paper_radius(4096, 1.2)}) {
    std::vector<Vec2> ring{{0.5, 0.5}};
    for (int a = 0; a < kAnnuli; ++a) {
      const double edge = r * static_cast<double>(kAnnuli - a) / kAnnuli;
      for (const double x : {0.5 + edge, 0.5 - edge}) {
        ring.push_back({std::nextafter(x, 0.0), 0.5});
        ring.push_back({x, 0.5});
        ring.push_back({std::nextafter(x, 1.0), 0.5});
      }
    }
    for (const ThreadPool* build_pool :
         {static_cast<const ThreadPool*>(nullptr), &pool}) {
      const GeometricGraph g(ring, r, geometry::Rect::unit_square(),
                             {.pool = build_pool});
      expect_mirror_matches_reference(g);
      // Every ring point but those past r on the outermost edge.
      EXPECT_GE(g.degree(0), 6u * kAnnuli - 4) << "r = " << r;
    }
  }
}

TEST(GeometricGraph, BuildAndMirrorBytesArePinned) {
  // Recorded from the binary-search mirror and the branching count and
  // fill loops that preceded the current kernels; any rewrite of either
  // kernel must keep every byte, serially and on a pool.
  struct Pin {
    std::size_t n;
    std::uint64_t digest;
  };
  const ThreadPool pool(4);
  for (const Pin pin : {Pin{1024, 0x076b72bc39eab82bull},
                        Pin{32768, 0x00dbfeaf873295bcull}}) {
    for (const ThreadPool* build_pool :
         {static_cast<const ThreadPool*>(nullptr), &pool}) {
      Rng rng(7);
      const auto g =
          GeometricGraph::sample(pin.n, 1.2, rng, {.pool = build_pool});
      EXPECT_EQ(graph_digest(g), pin.digest)
          << "n = " << pin.n << (build_pool ? ", 4 threads" : ", serial");
    }
  }
}

}  // namespace
}  // namespace geogossip::graph
