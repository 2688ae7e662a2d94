// Tests for the round-based multilevel affine gossip simulator — the
// accounting engine behind the headline scaling experiment (E5) and the
// ablations (E10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/multilevel.hpp"
#include "graph/connectivity.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/telemetry.hpp"
#include "routing/greedy.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::core {
namespace {

using graph::GeometricGraph;

GeometricGraph make_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return GeometricGraph::sample(n, 2.0, rng);
}

std::vector<double> make_field(const GeometricGraph& g, Rng& rng) {
  auto x0 = sim::gaussian_field(g.node_count(), rng);
  sim::center_and_normalize(x0);
  return x0;
}

/// Drives `protocol` on the engine to config.eps; `max_rounds` = 0 keeps
/// the protocol's default top-round cap.
sim::RunResult run(MultilevelAffineGossip& protocol, Rng& rng,
                   const MultilevelConfig& config,
                   std::uint64_t max_rounds = 0,
                   std::uint64_t trace_every = 0) {
  sim::RunConfig run_config;
  run_config.epsilon = config.eps;
  run_config.max_ticks = protocol.step_cap(max_rounds);
  run_config.trace_interval = trace_every;
  return sim::run_to_epsilon(protocol, rng, run_config);
}

TEST(Multilevel, ConvergesOnModerateDeployment) {
  const auto g = make_graph(2048, 600);
  Rng rng(601);
  auto x0 = make_field(g, rng);

  MultilevelConfig config;
  config.eps = 1e-3;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config);

  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.final_error, 1e-3);
  EXPECT_GT(result.ticks, 0u);
  EXPECT_GT(result.transmissions.total(), 0u);
}

TEST(Multilevel, ConservesTheSum) {
  const auto g = make_graph(1024, 602);
  Rng rng(603);
  auto x0 = make_field(g, rng);
  const double sum0 = std::accumulate(x0.begin(), x0.end(), 0.0);

  MultilevelConfig config;
  config.eps = 1e-3;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  ASSERT_TRUE(run(protocol, rng, config).converged);
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-7);
}

TEST(Multilevel, AllValuesNearTheMeanAfterConvergence) {
  const auto g = make_graph(1024, 604);
  Rng rng(605);
  std::vector<double> x0(g.node_count());
  for (auto& v : x0) v = rng.uniform(0.0, 20.0);
  const double mean0 = std::accumulate(x0.begin(), x0.end(), 0.0) /
                       static_cast<double>(x0.size());

  MultilevelConfig config;
  config.eps = 1e-4;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config);
  ASSERT_TRUE(result.converged);
  for (const double v : protocol.values()) EXPECT_NEAR(v, mean0, 0.5);
}

TEST(Multilevel, OneLevelModeUsesDepthOne) {
  const auto g = make_graph(1024, 606);
  Rng rng(607);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.max_depth = 1;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  EXPECT_EQ(protocol.hierarchy().levels(), 2);  // root + one split
  const auto result = run(protocol, rng, config);
  EXPECT_TRUE(result.converged);
}

TEST(Multilevel, ChargesAllThreeCategories) {
  const auto g = make_graph(2048, 608);
  Rng rng(609);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.transmissions[sim::TxCategory::kLocal], 0u);
  EXPECT_GT(result.transmissions[sim::TxCategory::kLongRange], 0u);
  EXPECT_GT(result.transmissions[sim::TxCategory::kControl], 0u);
}

TEST(Multilevel, ControlChargingCanBeDisabled) {
  const auto g = make_graph(1024, 610);
  Rng rng(611);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.charge_control = false;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.transmissions[sim::TxCategory::kControl], 0u);
}

TEST(Multilevel, ConvexRepModeIsFarSlowerThanAffine) {
  // THE core claim of the paper in miniature: convex representative
  // averaging moves only O(1/m) of a square's mass per exchange, while the
  // affine jump moves Theta(1) of it.
  const auto g = make_graph(1024, 612);
  Rng rng_a(613);
  Rng rng_b(614);
  auto x0 = make_field(g, rng_a);

  MultilevelConfig affine;
  affine.eps = 3e-2;
  affine.max_depth = 1;
  MultilevelAffineGossip affine_protocol(g, x0, rng_a, affine);
  const auto affine_result = run(affine_protocol, rng_a, affine);

  MultilevelConfig convex = affine;
  convex.beta_mode = BetaMode::kConvexRep;
  // Convex mode needs a far larger round cap to converge at all.
  MultilevelAffineGossip convex_protocol(g, x0, rng_b, convex);
  const auto convex_result = run(convex_protocol, rng_b, convex, 400'000);

  ASSERT_TRUE(affine_result.converged);
  if (convex_result.converged) {
    EXPECT_GT(convex_result.ticks, 5 * affine_result.ticks);
  } else {
    // Not converging within a 50x-larger budget makes the point, too.
    EXPECT_GT(convex_result.final_error, affine_result.final_error);
  }
}

TEST(Multilevel, HarmonicBetaModeAlsoConverges) {
  const auto g = make_graph(1024, 615);
  Rng rng(616);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.beta_mode = BetaMode::kActualHarmonic;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config);
  EXPECT_TRUE(result.converged);
  // Harmonic beta adapts to actual occupancy: fewer alpha-range violations
  // than the paper's fixed expected-occupancy gain would incur.
  EXPECT_LT(protocol.alpha_out_of_range(), result.ticks);
}

TEST(Multilevel, QuadraticLeafModelChargesMore) {
  const auto g = make_graph(2048, 617);
  Rng rng_a(618);
  Rng rng_b(618);  // same seed: identical round sequence
  auto x0 = make_field(g, rng_a);
  rng_b = Rng(618);

  MultilevelConfig mixing;
  mixing.eps = 1e-2;
  mixing.leaf_cost = LeafCostModel::kGrgMixing;
  Rng rng1(619);
  MultilevelAffineGossip p1(g, x0, rng1, mixing);
  const auto r1 = run(p1, rng1, mixing);

  MultilevelConfig quadratic = mixing;
  quadratic.leaf_cost = LeafCostModel::kQuadratic;
  Rng rng2(619);
  MultilevelAffineGossip p2(g, x0, rng2, quadratic);
  const auto r2 = run(p2, rng2, quadratic);

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_GT(r2.transmissions[sim::TxCategory::kLocal],
            r1.transmissions[sim::TxCategory::kLocal]);
}

TEST(Multilevel, MeasuredLeafModeConvergesAndCostsRealExchanges) {
  const auto g = make_graph(512, 620);
  Rng rng(621);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.leaf_cost = LeafCostModel::kMeasured;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.transmissions[sim::TxCategory::kLocal], 0u);
}

TEST(Multilevel, LeafNoiseInjectionStillConverges) {
  // Lemma 2 in vivo: small imperfect-averaging noise does not break
  // convergence to a coarser epsilon.
  const auto g = make_graph(1024, 622);
  Rng rng(623);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 3e-2;
  config.leaf_noise = 1e-6;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config);
  EXPECT_TRUE(result.converged);
}

TEST(Multilevel, LargeLeafNoiseFloorsTheError) {
  const auto g = make_graph(1024, 624);
  Rng rng(625);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-6;  // unreachable under heavy noise
  config.leaf_noise = 1e-2;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config, 3000);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.ticks, 3000u);
  EXPECT_GT(result.final_error, 1e-6);
}

TEST(Multilevel, TraceIsRecordedWhenRequested) {
  const auto g = make_graph(1024, 626);
  Rng rng(627);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = run(protocol, rng, config, 0, 8);
  ASSERT_TRUE(result.converged);
  ASSERT_GT(result.trace.size(), 1u);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].first, result.trace[i - 1].first);
  }
}

TEST(Multilevel, ConstantFieldConvergesImmediately) {
  const auto g = make_graph(256, 628);
  Rng rng(629);
  MultilevelConfig config;
  MultilevelAffineGossip protocol(
      g, std::vector<double>(g.node_count(), 7.0), rng, config);
  const auto result = run(protocol, rng, config);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.ticks, 0u);
  EXPECT_EQ(result.transmissions.total(), 0u);
}

TEST(Multilevel, TinyDeploymentDegeneratesToLeafAveraging) {
  const auto g = make_graph(24, 630);  // below the leaf threshold
  Rng rng(631);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-3;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  EXPECT_EQ(protocol.hierarchy().levels(), 1);
  // One open-loop pass is one engine step, whatever cap was asked for.
  EXPECT_EQ(protocol.step_cap(1000), 1u);
  const auto result = run(protocol, rng, config, 1000);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.ticks, 1u);
}

TEST(Multilevel, OneLevelLocalShareGrowsWithN) {
  // §3's one-level protocol pays Theta(m (L/r)^2 log m) = Theta~(m^2 / log n)
  // per in-square averaging with m = sqrt(n): the local share of its bill
  // must grow with n — the paper's motivation for recursing.
  const auto local_share = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    auto g = GeometricGraph::sample(n, 2.0, rng);
    auto x0 = sim::gaussian_field(n, rng);
    sim::center_and_normalize(x0);
    MultilevelConfig config;
    config.eps = 1e-2;
    config.max_depth = 1;
    MultilevelAffineGossip protocol(g, x0, rng, config);
    const auto result = run(protocol, rng, config);
    EXPECT_TRUE(result.converged);
    return static_cast<double>(
               result.transmissions[sim::TxCategory::kLocal]) /
           static_cast<double>(result.transmissions.total());
  };
  EXPECT_GT(local_share(8192, 633), local_share(512, 632));
}

TEST(Multilevel, RecursionOverheadAtSimulableScaleIsDocumented) {
  // At simulable n the fan-out of depth >= 1 splits is SMALL (k ~ 4..16),
  // so the per-level round multiplier 2 c ln(k / eps_r) exceeds the k-fold
  // leaf shrinkage and full recursion costs MORE than one level — the
  // asymptotic regime needs k >> log(k/eps), i.e. n >> 10^6 (experiment
  // E10).  Pin that fact so a regression in either direction is caught.
  const auto g = make_graph(2048, 632);
  Rng rng1(634);
  auto x0 = make_field(g, rng1);

  MultilevelConfig one_level;
  one_level.eps = 1e-2;
  one_level.max_depth = 1;
  Rng rng2(635);
  MultilevelAffineGossip p1(g, x0, rng2, one_level);
  const auto r1 = run(p1, rng2, one_level);

  MultilevelConfig multi = one_level;
  multi.max_depth = 12;
  Rng rng3(635);
  MultilevelAffineGossip p2(g, x0, rng3, multi);
  const auto r2 = run(p2, rng3, multi);

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_GT(p2.hierarchy().levels(), p1.hierarchy().levels());
  EXPECT_GT(r2.transmissions.total(), r1.transmissions.total());
}

TEST(Multilevel, StepCapDefaultsToTheRootRoundBudget) {
  const auto g = make_graph(1024, 637);
  Rng rng(638);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.max_depth = 1;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto& root = protocol.hierarchy().square(protocol.hierarchy().root());
  double k = 0.0;
  for (const int child : root.children) {
    if (!protocol.hierarchy().square(child).members.empty()) k += 1.0;
  }
  ASSERT_GE(k, 2.0);
  EXPECT_EQ(protocol.step_cap(0), static_cast<std::uint64_t>(std::ceil(
                                      64.0 * k * std::log(k / config.eps))));
  EXPECT_EQ(protocol.step_cap(17), 17u);
}

TEST(RouteHopCache, UndeliveredRouteAddsTheStraightLineEstimate) {
  // 0 -- 1 are neighbours; 2 is isolated in the far corner.  Greedy
  // routing 0 -> 2 steps to 1 (closer to 2) and dead-ends there: one hop
  // taken plus ceil(|p0 - p2| / r) = ceil(1.1314 / 0.15) = 8 charged.
  const GeometricGraph g({{0.1, 0.1}, {0.2, 0.1}, {0.9, 0.9}}, 0.15);
  RouteHopCache routes(g);
  EXPECT_EQ(routes.hops(0, 2), 9u);
  EXPECT_EQ(routes.hops(2, 0), 9u);  // keyed on the unordered pair
  EXPECT_EQ(routes.hops(0, 1), 1u);  // a delivered route is its hops
}

/// The hop count RouteHopCache documents, from a fresh greedy route.
std::uint32_t fresh_route_hops(const GeometricGraph& g, graph::NodeId a,
                               graph::NodeId b) {
  const auto route = routing::route_to_node(g, a, b);
  if (route.arrived()) return route.hops;
  const double dist = geometry::distance(g.position(a), g.position(b));
  return route.hops + static_cast<std::uint32_t>(std::ceil(dist / g.radius()));
}

TEST(RouteHopCache, EveryPairMatchesAFreshRouteAcrossRehashes) {
  // 96 nodes: 4560 unordered pairs grow the table from 64 slots to 16384,
  // seven rehashes, each of which must carry every cached count along.
  const auto g = make_graph(96, 4400);
  const auto n = static_cast<graph::NodeId>(g.node_count());
  RouteHopCache routes(g);
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = a + 1; b < n; ++b) {
      ASSERT_EQ(routes.hops(a, b), fresh_route_hops(g, a, b))
          << a << " -> " << b;
    }
  }
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      ASSERT_EQ(routes.hops(b, a), fresh_route_hops(g, std::min(a, b),
                                                    std::max(a, b)))
          << b << " -> " << a << " after the rehashes";
    }
  }
}

TEST(RouteHopCache, ANodeIsZeroHopsFromItself) {
  const auto g = make_graph(64, 4401);
  RouteHopCache routes(g);
  EXPECT_EQ(routes.hops(0, 0), 0u);
  EXPECT_EQ(routes.hops(63, 63), 0u);
  EXPECT_EQ(routes.hops(0, 0), 0u);  // now from the table
}

#if !defined(GEOGOSSIP_OBS_DISABLE)
TEST(RouteHopCache, RoutesEachDistinctPairOnce) {
  const auto g = make_graph(128, 4402);
  const auto routed = [] {
    const auto totals = obs::counter_totals();
    const auto it = totals.find("routing.routes");
    return it == totals.end() ? std::uint64_t{0} : it->second;
  };
  obs::reset();
  obs::set_enabled(true);
  RouteHopCache routes(g);
  std::uint64_t distinct = 0;
  for (graph::NodeId a = 0; a < 128; a += 3) {
    for (graph::NodeId b = a + 1; b < 128; b += 5) {
      (void)routes.hops(a, b);
      ++distinct;
    }
  }
  const std::uint64_t first_pass = routed();
  for (graph::NodeId a = 0; a < 128; a += 3) {
    for (graph::NodeId b = a + 1; b < 128; b += 5) {
      (void)routes.hops(b, a);
      (void)routes.hops(a, b);
    }
  }
  const std::uint64_t repeats = routed() - first_pass;
  obs::set_enabled(false);
  obs::reset();
  EXPECT_GT(distinct, 64u);  // enough to rehash
  EXPECT_EQ(first_pass, distinct);
  EXPECT_EQ(repeats, 0u);
}
#endif

}  // namespace
}  // namespace geogossip::core
