// Tests for the O(1) incremental convergence tracking: DeviationTracker
// drift bounds, the ValueProtocol update API, the periodic exact-refresh
// cadence, and the engine's per-step check semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/multilevel.hpp"
#include "gossip/base.hpp"
#include "gossip/pairwise.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/deviation_tracker.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/neumaier.hpp"
#include "support/rng.hpp"

namespace geogossip {
namespace {

double exact_deviation_sq(const std::vector<double>& x) {
  const double norm = sim::deviation_norm(x);
  return norm * norm;
}

TEST(NeumaierSum, CompensatesCancellation) {
  NeumaierSum sum;
  sum.add(1.0);
  sum.add(1e100);
  sum.add(1.0);
  sum.add(-1e100);
  EXPECT_DOUBLE_EQ(sum.value(), 2.0);  // naive summation returns 0
}

TEST(DeviationTracker, MatchesExactRecomputationOnSmallUpdates) {
  Rng rng(41);
  std::vector<double> x(64);
  for (double& v : x) v = rng.normal();
  sim::DeviationTracker tracker;
  tracker.reset(x);
  EXPECT_NEAR(tracker.deviation_sq(), exact_deviation_sq(x), 1e-12);

  for (int step = 0; step < 1000; ++step) {
    const std::size_t i = rng.below(x.size());
    const double next = rng.normal();
    tracker.update(x[i], next);
    x[i] = next;
  }
  const double exact = exact_deviation_sq(x);
  EXPECT_NEAR(tracker.deviation_sq(), exact, 1e-9 * exact);
}

// Satellite requirement: >= 10^6 updates with the incremental norm staying
// within a tight relative tolerance of the exact recomputation.
TEST(DeviationTracker, MillionUpdateDriftStaysTight) {
  Rng rng(42);
  std::vector<double> x(512);
  for (double& v : x) v = rng.normal();
  sim::DeviationTracker tracker;
  tracker.reset(x);

  constexpr int kUpdates = 1'200'000;
  for (int step = 1; step <= kUpdates; ++step) {
    if (step % 3 == 0) {
      // Sum-conserving pair average through the fast path.
      const std::size_t i = rng.below(x.size());
      const std::size_t j = rng.below_excluding(x.size(), i);
      const double average = 0.5 * (x[i] + x[j]);
      tracker.update_conserving_pair(x[i], x[j], average, average);
      x[i] = average;
      x[j] = average;
    } else {
      // Generic update random-walks one element so the field never
      // collapses and the comparison stays well-conditioned.
      const std::size_t i = rng.below(x.size());
      const double next = x[i] + 0.25 * rng.normal();
      tracker.update(x[i], next);
      x[i] = next;
    }
    if (step % 100'000 == 0) {
      const double exact = exact_deviation_sq(x);
      ASSERT_GT(exact, 0.0);
      EXPECT_NEAR(tracker.deviation_sq(), exact, 1e-8 * exact)
          << "after " << step << " updates";
    }
  }
}

TEST(DeviationTracker, NanPropagatesInsteadOfReportingConvergence) {
  std::vector<double> x{1.0, -1.0};
  sim::DeviationTracker tracker;
  tracker.reset(x);
  tracker.update(x[0], std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(tracker.deviation_sq()));
}

// Exposes the protected update API for direct testing.
class ScriptedProtocol final : public gossip::ValueProtocol {
 public:
  using ValueProtocol::ValueProtocol;
  using ValueProtocol::apply_affine_jump;
  using ValueProtocol::apply_average;
  using ValueProtocol::apply_pair_average;
  using ValueProtocol::set_value;

  std::string_view name() const override { return "scripted"; }
  void on_tick(const sim::Tick&) override {}
};

TEST(ValueProtocol, UpdateApiTracksDeviationAndConservesSum) {
  Rng rng(43);
  const auto graph = graph::GeometricGraph::sample(128, 2.0, rng);
  auto x0 = sim::gaussian_field(128, rng);
  ScriptedProtocol protocol(graph, x0, rng);
  const double sum0 = protocol.value_sum();

  std::vector<graph::NodeId> group{1, 5, 9, 21, 40};
  for (int round = 0; round < 2000; ++round) {
    const auto a = static_cast<graph::NodeId>(rng.below(128));
    const auto b = static_cast<graph::NodeId>(rng.below_excluding(128, a));
    protocol.apply_pair_average(a, b);
    protocol.apply_affine_jump(a, b, 1.7);  // non-convex, sum-preserving
    protocol.apply_average(group);
  }
  const double exact = exact_deviation_sq(
      {protocol.values().begin(), protocol.values().end()});
  EXPECT_NEAR(protocol.deviation_sq(), exact, 1e-9 * (exact + 1e-30));
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-9);

  // set_value is tracked too (and may change the sum).
  protocol.set_value(7, 123.456);
  const double exact2 = exact_deviation_sq(
      {protocol.values().begin(), protocol.values().end()});
  EXPECT_NEAR(protocol.deviation_sq(), exact2, 1e-9 * exact2);
}

TEST(ValueProtocol, RefreshCadenceIsHonored) {
  Rng rng(44);
  const auto graph = graph::GeometricGraph::sample(64, 2.0, rng);
  ScriptedProtocol protocol(graph, sim::gaussian_field(64, rng), rng);
  EXPECT_EQ(protocol.tracker_refreshes(), 0u);

  // At n = 64 the cadence is its 2^16 floor: one refresh per 65536
  // element updates, i.e. per 32768 pair averages.
  constexpr int kPairsPerRefresh = 32768;
  for (int i = 0; i < kPairsPerRefresh - 1; ++i) {
    protocol.apply_pair_average(0, 1);
  }
  EXPECT_EQ(protocol.tracker_refreshes(), 0u);
  protocol.apply_pair_average(0, 1);
  EXPECT_EQ(protocol.tracker_refreshes(), 1u);
  // 10 more intervals = exactly 10 more refreshes.
  for (int i = 0; i < 10 * kPairsPerRefresh; ++i) {
    protocol.apply_pair_average(0, 1);
  }
  EXPECT_EQ(protocol.tracker_refreshes(), 11u);
}

/// Runs a fresh protocol from seed `seed` (graph, field, then protocol on
/// one stream) to eps = 1e-2 with a step budget of `max_steps`; 0 keeps
/// the protocol's default budget.
template <typename Protocol, typename... Config>
sim::RunResult run_from_seed(std::uint64_t seed, std::size_t n,
                             std::uint64_t max_steps, const Config&... config) {
  Rng rng(seed);
  const auto graph = graph::GeometricGraph::sample(n, 2.0, rng);
  auto x0 = sim::gaussian_field(n, rng);
  sim::center_and_normalize(x0);
  Protocol protocol(graph, x0, rng, config...);
  sim::RunConfig run_config;
  run_config.epsilon = 1e-2;
  run_config.max_ticks = max_steps != 0 ? max_steps : 10'000'000;
  if constexpr (requires { protocol.step_cap(max_steps); }) {
    run_config.max_ticks = protocol.step_cap(max_steps);
  }
  return sim::run_to_epsilon(protocol, rng, run_config);
}

/// The engine checks convergence after every step, so the reported step T
/// is exact: one step less never converges, and a budget of exactly T
/// converges at T.
template <typename Protocol, typename... Config>
void expect_exact_convergence_step(std::uint64_t seed, std::size_t n,
                                   const Config&... config) {
  const auto free_run = run_from_seed<Protocol>(seed, n, 0, config...);
  ASSERT_TRUE(free_run.converged);
  const std::uint64_t t = free_run.ticks;
  ASSERT_GE(t, 2u);

  const auto short_run = run_from_seed<Protocol>(seed, n, t - 1, config...);
  EXPECT_FALSE(short_run.converged);
  EXPECT_EQ(short_run.ticks, t - 1);
  EXPECT_GT(short_run.final_error, 1e-2);

  const auto exact_run = run_from_seed<Protocol>(seed, n, t, config...);
  EXPECT_TRUE(exact_run.converged);
  EXPECT_EQ(exact_run.ticks, t);
  EXPECT_EQ(exact_run.final_error, free_run.final_error);
  EXPECT_EQ(exact_run.transmissions.total(), free_run.transmissions.total());
}

TEST(Engine, PerTickChecksReportExactConvergenceTick) {
  {
    SCOPED_TRACE("tick protocol: pairwise gossip");
    expect_exact_convergence_step<gossip::PairwiseGossip>(45, 256);
  }
  {
    SCOPED_TRACE("round protocol: multilevel affine gossip");
    core::MultilevelConfig config;
    config.eps = 1e-2;
    expect_exact_convergence_step<core::MultilevelAffineGossip>(46, 1024,
                                                                config);
  }
}

}  // namespace
}  // namespace geogossip
