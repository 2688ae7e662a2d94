// Unit tests for the simulation substrate: Poisson clocks, transmission
// metering, initial-value fields and the convergence engine.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "geometry/sampling.hpp"
#include "gossip/pairwise.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "sim/metrics.hpp"
#include "stats/summary.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/snapshot.hpp"

namespace geogossip::sim {
namespace {

// ---------------------------------------------------------------- Clock ----

TEST(AsyncClock, TickOwnersAreUniform) {
  Rng rng(70);
  AsyncClock clock(10, rng);
  std::vector<int> counts(10, 0);
  constexpr int kTicks = 100000;
  for (int i = 0; i < kTicks; ++i) ++counts[clock.next().node];
  for (const int c : counts) EXPECT_NEAR(c, kTicks / 10, 600);
  EXPECT_EQ(clock.ticks_elapsed(), static_cast<std::uint64_t>(kTicks));
}

TEST(AsyncClock, TimeAndIndexAdvanceMonotonically) {
  Rng rng(72);
  AsyncClock clock(3, rng);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(clock.next().index, i);
    EXPECT_EQ(clock.ticks_elapsed(), i + 1);
  }
  EXPECT_THROW(AsyncClock(0, rng), ArgumentError);
}

TEST(AsyncClock, DrawsTheGapUniformBeforeEachOwner) {
  // Each tick still consumes the exponential gap's uniform, though no
  // result reads model time: every pinned trajectory depends on it.  The
  // owners and the next draw after them are those of the clock that took
  // the gap's log (fingerprint: FNV-1a over the owners, one byte each).
  Rng rng(71);
  AsyncClock clock(50, rng);
  const std::vector<std::uint32_t> first = {4,  42, 5,  35, 15, 27, 2, 9,
                                            6,  25, 16, 0,  21, 5,  10, 16,
                                            8,  1,  8,  33, 18, 17, 25, 25};
  std::string owners;
  for (int i = 0; i < 1000; ++i) {
    const Tick tick = clock.next();
    if (owners.size() < first.size()) {
      EXPECT_EQ(tick.node, first[owners.size()]) << "tick " << i;
    }
    owners.push_back(static_cast<char>(tick.node));
  }
  EXPECT_EQ(fnv1a64(owners), 0xd13c6895aa5e184dULL);
  EXPECT_EQ(rng.next_u64(), 0x473b1aede6a11a0bULL);
}

// -------------------------------------------------------------- Metrics ----

TEST(TxMeter, CategoriesAndTotal) {
  TxMeter meter;
  meter.add(TxCategory::kLocal, 2);
  meter.add(TxCategory::kLongRange, 10);
  meter.add(TxCategory::kControl);
  EXPECT_EQ(meter.total(), 13u);
  EXPECT_EQ(meter.snapshot()[TxCategory::kLocal], 2u);
  EXPECT_EQ(meter.snapshot()[TxCategory::kLongRange], 10u);
  EXPECT_EQ(meter.snapshot()[TxCategory::kControl], 1u);
  meter.reset();
  EXPECT_EQ(meter.total(), 0u);
}

TEST(TxSnapshot, DifferenceAndToString) {
  TxMeter meter;
  meter.add(TxCategory::kLocal, 5);
  const TxSnapshot before = meter.snapshot();
  meter.add(TxCategory::kLocal, 3);
  meter.add(TxCategory::kControl, 2);
  const TxSnapshot delta = meter.snapshot() - before;
  EXPECT_EQ(delta[TxCategory::kLocal], 3u);
  EXPECT_EQ(delta[TxCategory::kControl], 2u);
  EXPECT_NE(meter.snapshot().to_string().find("local"), std::string::npos);
  EXPECT_EQ(tx_category_name(TxCategory::kLongRange), "long-range");
}

// ---------------------------------------------------------------- Field ----

TEST(Field, SpikeHasOneHotEntry) {
  Rng rng(73);
  const auto x = spike_field(50, rng);
  int nonzero = 0;
  for (const double v : x) {
    if (v != 0.0) {
      EXPECT_DOUBLE_EQ(v, 1.0);
      ++nonzero;
    }
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(Field, GradientFollowsPositions) {
  const std::vector<geometry::Vec2> points{{0.0, 0.0}, {0.5, 0.25}, {1.0, 1.0}};
  const auto x = gradient_field(points);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.75);
  EXPECT_DOUBLE_EQ(x[2], 2.0);
}

TEST(Field, CheckerboardAlternates) {
  const std::vector<geometry::Vec2> points{
      {0.1, 0.1}, {0.3, 0.1}, {0.1, 0.3}, {0.3, 0.3}};
  const auto x = checkerboard_field(points, 4);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -1.0);
  EXPECT_DOUBLE_EQ(x[2], -1.0);
  EXPECT_DOUBLE_EQ(x[3], 1.0);
}

TEST(Field, GaussianMomentsRoughlyStandard) {
  Rng rng(74);
  const auto x = gaussian_field(20000, rng);
  EXPECT_NEAR(stats::mean_of(x), 0.0, 0.03);
  EXPECT_NEAR(stats::variance_of(x), 1.0, 0.05);
}

TEST(Field, CenterAndNormalize) {
  std::vector<double> x{1.0, 2.0, 3.0, 6.0};
  center_and_normalize(x);
  EXPECT_NEAR(stats::mean_of(x), 0.0, 1e-12);
  EXPECT_NEAR(stats::l2_norm(x), 1.0, 1e-12);
  std::vector<double> constant{5.0, 5.0, 5.0};
  center_and_normalize(constant);
  for (const double v : constant) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Field, KindParsingAndDispatch) {
  EXPECT_EQ(parse_field_kind("Spike"), FieldKind::kSpike);
  EXPECT_EQ(parse_field_kind("gradient"), FieldKind::kGradient);
  EXPECT_THROW(parse_field_kind("nope"), ArgumentError);
  EXPECT_EQ(field_kind_name(FieldKind::kCheckerboard), "checkerboard");
  Rng rng(75);
  const auto points = geometry::sample_unit_square(20, rng);
  for (const auto kind : {FieldKind::kSpike, FieldKind::kGradient,
                          FieldKind::kGaussian, FieldKind::kCheckerboard}) {
    EXPECT_EQ(make_field(kind, points, rng).size(), 20u);
  }
}

// --------------------------------------------------------------- Engine ----

TEST(Engine, DeviationNormAndRelativeError) {
  const std::vector<double> x{1.0, -1.0, 1.0, -1.0};
  EXPECT_NEAR(deviation_norm(x), 2.0, 1e-12);
  EXPECT_NEAR(relative_error(x, 4.0), 0.5, 1e-12);
  EXPECT_THROW(relative_error(x, 0.0), ArgumentError);
}

TEST(Engine, ConvergesPairwiseOnSmallGraph) {
  Rng rng(76);
  const auto graph = graph::GeometricGraph::sample(200, 2.0, rng);
  auto x0 = gaussian_field(200, rng);
  center_and_normalize(x0);
  gossip::PairwiseGossip protocol(graph, x0, rng);

  RunConfig config;
  config.epsilon = 1e-2;
  config.max_ticks = 20'000'000;
  const auto result = run_to_epsilon(protocol, rng, config);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.final_error, 1e-2);
  EXPECT_GT(result.transmissions.total(), 0u);
  EXPECT_EQ(result.transmissions[TxCategory::kLongRange], 0u);
}

TEST(Engine, ConstantFieldConvergesInstantly) {
  Rng rng(77);
  const auto graph = graph::GeometricGraph::sample(50, 2.0, rng);
  gossip::PairwiseGossip protocol(graph, std::vector<double>(50, 3.25), rng);
  RunConfig config;
  config.epsilon = 1e-3;
  config.max_ticks = 10;
  const auto result = run_to_epsilon(protocol, rng, config);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.ticks, 0u);
}

TEST(Engine, RespectsTickBudget) {
  Rng rng(78);
  const auto graph = graph::GeometricGraph::sample(500, 2.0, rng);
  auto x0 = spike_field(500, rng);
  center_and_normalize(x0);
  gossip::PairwiseGossip protocol(graph, x0, rng);
  RunConfig config;
  config.epsilon = 1e-9;  // unreachable in the budget
  config.max_ticks = 1000;
  const auto result = run_to_epsilon(protocol, rng, config);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.ticks, 1000u);
  EXPECT_GT(result.final_error, 1e-9);
}

TEST(Engine, ValidatesConfig) {
  Rng rng(80);
  const auto graph = graph::GeometricGraph::sample(20, 2.0, rng);
  gossip::PairwiseGossip protocol(graph, std::vector<double>(20, 0.0), rng);
  RunConfig config;
  config.max_ticks = 0;
  EXPECT_THROW(run_to_epsilon(protocol, rng, config), ArgumentError);
  config.max_ticks = 10;
  config.epsilon = 0.0;
  EXPECT_THROW(run_to_epsilon(protocol, rng, config), ArgumentError);
}

}  // namespace
}  // namespace geogossip::sim
