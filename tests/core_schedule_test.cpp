// Tests for the split rule's level profile, the literal paper schedule and
// the calibrated core::Schedule (with the bad-value table both hierarchical
// protocols must reject), plus the closed-form transmission predictions.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/hierarchy_protocol.hpp"
#include "core/multilevel.hpp"
#include "core/round_protocol.hpp"
#include "core/schedule.hpp"
#include "geometry/hierarchy.hpp"
#include "geometry/sampling.hpp"
#include "graph/geometric_graph.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::core {
namespace {

geometry::HierarchyConfig practical(double leaf_threshold,
                                    int max_depth = 12) {
  geometry::HierarchyConfig config;
  config.leaf_occupancy = leaf_threshold;
  config.max_depth = max_depth;
  return config;
}

/// The nominal per-depth fan-outs make_paper_schedule walks.
std::vector<std::int64_t> nominal_fan_out(std::size_t n,
                                          double leaf_threshold,
                                          int max_depth = 12) {
  return make_paper_schedule(n, 1e-3, 1e-2, 1.0,
                             practical(leaf_threshold, max_depth))
      .fan_out;
}

// ---------------------------------------------------------- LevelProfile ----

TEST(LevelProfile, FollowsPaperFanOutRule) {
  // n = 1e6: root fan-out = nearest even square of sqrt(1e6) = 1024.
  EXPECT_EQ(geometry::split_fan_out(1e6, 0, 48.0, 12), 1024);
  const auto fan_out = nominal_fan_out(1'000'000, 48.0);
  ASSERT_GE(fan_out.size(), 3u);
  EXPECT_EQ(fan_out[0], 1024);
  EXPECT_EQ(fan_out[1], geometry::split_fan_out(1e6 / 1024.0, 1, 48.0, 12));
  // Depth grows ~ log log n: for n = 1e6 expect 3-4 levels, not 10.
  EXPECT_LE(fan_out.size(), 5u);
  // The last level is a leaf, and only it: the level above still splits.
  EXPECT_EQ(fan_out.back(), 0);
  double expected = 1e6;
  for (std::size_t r = 0; r + 1 < fan_out.size(); ++r) {
    EXPECT_GT(expected, 48.0) << "depth " << r;
    expected /= static_cast<double>(fan_out[r]);
  }
  EXPECT_LE(expected, 48.0);
}

TEST(LevelProfile, SmallNIsLeafOnly) {
  EXPECT_EQ(geometry::split_fan_out(30.0, 0, 48.0, 12), 0);
  EXPECT_EQ(nominal_fan_out(30, 48.0), std::vector<std::int64_t>{0});
}

TEST(LevelProfile, DepthCapIsRespected) {
  // Occupancy far above the threshold still stops splitting at the cap.
  EXPECT_EQ(geometry::split_fan_out(1e6, 2, 2.0, 2), 0);
  EXPECT_GT(geometry::split_fan_out(1e6, 1, 2.0, 2), 0);
  EXPECT_LE(nominal_fan_out(1'000'000, 2.0, 2).size(), 3u);  // depths 0-2
}

TEST(LevelProfile, DepthGrowsVerySlowlyWithN) {
  const auto d1 = nominal_fan_out(1u << 12, 32.0).size();
  const auto d2 = nominal_fan_out(1u << 24, 32.0).size();
  EXPECT_LE(d2, d1 + 2);  // doubling the exponent adds O(1) levels
}

TEST(LevelProfile, TheSampledHierarchySplitsByTheSameRule) {
  Rng rng(4242);
  const auto points = geometry::sample_unit_square(4096, rng);
  const geometry::PartitionHierarchy hierarchy(points, practical(12.0, 3));
  ASSERT_EQ(hierarchy.levels(), 4);  // the depth cap binds at depth 3
  for (std::size_t id = 0; id < hierarchy.square_count(); ++id) {
    const auto& square = hierarchy.square(static_cast<int>(id));
    EXPECT_EQ(static_cast<std::int64_t>(square.children.size()),
              geometry::split_fan_out(square.expected_occupancy, square.depth,
                                      12.0, 3))
        << "square " << id;
  }
}

// --------------------------------------------------------- PaperSchedule ----

TEST(PaperSchedule, EpsAndDeltaShrinkAsSpecified) {
  const auto schedule =
      make_paper_schedule(100'000, 1e-3, 1e-2, 1.0, practical(48.0));
  ASSERT_EQ(schedule.eps.size(), schedule.fan_out.size());
  ASSERT_GE(schedule.eps.size(), 2u);
  for (std::size_t r = 1; r < schedule.eps.size(); ++r) {
    // eps_{r} = eps_{r-1} / (25 n^{4.5}) for a=1; the quantities span
    // hundreds of orders of magnitude, so compare in log10.
    const double log_ratio =
        std::log10(schedule.eps[r - 1]) - std::log10(schedule.eps[r]);
    EXPECT_NEAR(log_ratio, std::log10(25.0) + 4.5 * 5.0, 1e-6);
    // delta_{r+1} = delta_r / n^(2 a r): the r = 0 step is the identity
    // (n^0), so delta_1 == delta_0; it shrinks strictly afterwards.
    if (r == 1) {
      EXPECT_DOUBLE_EQ(schedule.delta[r], schedule.delta[r - 1]);
    } else {
      EXPECT_LT(schedule.delta[r], schedule.delta[r - 1]);
    }
  }
}

TEST(PaperSchedule, TimeBudgetsGrowTowardsTheRoot) {
  const auto schedule =
      make_paper_schedule(1'000'000, 1e-3, 1e-2, 1.0, practical(48.0));
  for (std::size_t r = 1; r < schedule.log10_time.size(); ++r) {
    EXPECT_GT(schedule.log10_time[r - 1], schedule.log10_time[r]);
  }
  // The literal budgets are astronomic — that is the point of reporting
  // them (and of the practical substitution).
  EXPECT_GT(schedule.log10_time[0], 20.0);
  EXPECT_NE(schedule.to_string().find("depth 0"), std::string::npos);
}

TEST(PaperSchedule, Validation) {
  const auto ok = practical(48.0);
  EXPECT_THROW(make_paper_schedule(1000, 0.0, 0.5, 1.0, ok), ArgumentError);
  EXPECT_THROW(make_paper_schedule(1000, 0.5, 1.5, 1.0, ok), ArgumentError);
  EXPECT_THROW(make_paper_schedule(1000, 0.5, 0.5, 0.0, ok), ArgumentError);
  EXPECT_THROW(make_paper_schedule(1, 0.5, 0.5, 1.0, ok), ArgumentError);
  EXPECT_THROW(make_paper_schedule(1000, 0.5, 0.5, 1.0, practical(0.5)),
               ArgumentError);
}

// -------------------------------------------------------------- Schedule ----
// core::Schedule: the calibrated schedule both protocols run, tabulated on
// a sampled deployment's actual hierarchy.

std::vector<geometry::Vec2> sampled_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return geometry::sample_unit_square(n, rng);
}

TEST(Schedule, RoundsFollowObservationOne) {
  const auto points = sampled_points(65536, 4243);
  const Schedule schedule(points, geometry::Rect::unit_square(), {});
  const auto& hierarchy = schedule.hierarchy();
  ASSERT_EQ(hierarchy.levels(), 3);
  int split = 0;
  for (std::size_t id = 0; id < hierarchy.square_count(); ++id) {
    const int square = static_cast<int>(id);
    std::vector<int> nonempty;
    for (const int child : hierarchy.square(square).children) {
      if (!hierarchy.square(child).members.empty()) nonempty.push_back(child);
    }
    const auto children = schedule.children(square);
    EXPECT_EQ(std::vector<int>(children.begin(), children.end()), nonempty)
        << "square " << id;
    if (nonempty.size() < 2) {
      EXPECT_EQ(schedule.rounds(square), 0u) << "square " << id;
      continue;
    }
    ++split;
    const double k = static_cast<double>(nonempty.size());
    const double expected = std::ceil(k * std::log(k / schedule.eps(square)));
    EXPECT_EQ(schedule.rounds(square), static_cast<std::uint32_t>(expected))
        << "square " << id;
  }
  EXPECT_EQ(split, 1 + 256);  // the root and every depth-1 square
  EXPECT_NE(schedule.to_string().find("rounds"), std::string::npos);
}

TEST(Schedule, EpsDecaysGeometrically) {
  const auto points = sampled_points(65536, 4244);
  ScheduleConfig config;
  config.eps = 1e-2;
  config.round_constant = 2.0;
  config.eps_decay = 5.0;
  const Schedule schedule(points, geometry::Rect::unit_square(), config);
  const auto& hierarchy = schedule.hierarchy();
  EXPECT_EQ(schedule.eps(hierarchy.root()), 1e-2);
  for (std::size_t id = 1; id < hierarchy.square_count(); ++id) {
    const int parent = hierarchy.square(static_cast<int>(id)).parent;
    EXPECT_NEAR(schedule.eps(parent) / schedule.eps(static_cast<int>(id)),
                5.0, 1e-9)
        << "square " << id;
  }
}

/// One row of the bad-value table: a ScheduleConfig setting that the
/// Schedule, and so both hierarchical protocols, must reject.
struct BadSchedule {
  const char* what;
  void (*apply)(ScheduleConfig&);
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

constexpr BadSchedule kBadSchedules[] = {
    {"eps = 0", [](ScheduleConfig& c) { c.eps = 0.0; }},
    {"eps = 1", [](ScheduleConfig& c) { c.eps = 1.0; }},
    {"eps = NaN", [](ScheduleConfig& c) { c.eps = kNaN; }},
    {"eps_decay = -2", [](ScheduleConfig& c) { c.eps_decay = -2.0; }},
    {"eps_decay = 0", [](ScheduleConfig& c) { c.eps_decay = 0.0; }},
    {"eps_decay = 1", [](ScheduleConfig& c) { c.eps_decay = 1.0; }},
    {"eps_decay = NaN", [](ScheduleConfig& c) { c.eps_decay = kNaN; }},
    {"round_constant = -1",
     [](ScheduleConfig& c) { c.round_constant = -1.0; }},
    {"round_constant = 0", [](ScheduleConfig& c) { c.round_constant = 0.0; }},
    {"leaf_threshold = 0.5", [](ScheduleConfig& c) { c.leaf_threshold = 0.5; }},
    {"max_depth = 0", [](ScheduleConfig& c) { c.max_depth = 0; }},
};

graph::GeometricGraph validation_graph() {
  Rng rng(717);
  return graph::GeometricGraph::sample(64, 2.0, rng);
}

TEST(Schedule, Validation) {
  const auto g = validation_graph();
  EXPECT_NO_THROW(Schedule(g.points(), g.region(), {}));
  for (const BadSchedule& bad : kBadSchedules) {
    ScheduleConfig config;
    bad.apply(config);
    EXPECT_THROW(Schedule(g.points(), g.region(), config), ArgumentError)
        << bad.what;
  }
}

TEST(Multilevel, Validation) {
  const auto g = validation_graph();
  Rng rng(636);
  const std::vector<double> x0(g.node_count(), 0.0);
  EXPECT_THROW(MultilevelAffineGossip(g, std::vector<double>(3, 0.0), rng,
                                      MultilevelConfig{}),
               ArgumentError);
  for (const BadSchedule& bad : kBadSchedules) {
    MultilevelConfig config;
    bad.apply(config);
    EXPECT_THROW(MultilevelAffineGossip(g, x0, rng, config), ArgumentError)
        << bad.what;
  }
}

TEST(AsyncProtocol, Validation) {
  const auto g = validation_graph();
  Rng rng(718);
  const std::vector<double> x0(g.node_count(), 0.0);
  EXPECT_THROW(HierarchicalAffineProtocol(g, std::vector<double>(3, 0.0), rng,
                                          HierarchyProtocolConfig{}),
               ArgumentError);
  for (const BadSchedule& bad : kBadSchedules) {
    HierarchyProtocolConfig config;
    bad.apply(config);
    EXPECT_THROW(HierarchicalAffineProtocol(g, x0, rng, config), ArgumentError)
        << bad.what;
  }
  // The state machine's own budget calibration.
  const auto rejects = [&](const char* what,
                           void (*apply)(HierarchyProtocolConfig&)) {
    HierarchyProtocolConfig config;
    apply(config);
    EXPECT_THROW(HierarchicalAffineProtocol(g, x0, rng, config), ArgumentError)
        << what;
  };
  rejects("budget_constant = 0",
          [](HierarchyProtocolConfig& c) { c.budget_constant = 0.0; });
  rejects("budget_constant = -1",
          [](HierarchyProtocolConfig& c) { c.budget_constant = -1.0; });
  rejects("budget_constant = NaN",
          [](HierarchyProtocolConfig& c) { c.budget_constant = kNaN; });
  rejects("latency_factor = 0.5",
          [](HierarchyProtocolConfig& c) { c.latency_factor = 0.5; });
}

// ------------------------------------------------------------ Predictions ----

TEST(Predictions, OrderingAtLargeN) {
  // At large n the paper's n^(1+o(1)) must sit below Dimakis' n^1.5,
  // which sits below Boyd's n^2 (equal constants).
  const std::size_t n = 1 << 26;
  const double boyd = boyd_predicted_transmissions(n, 1e-3, 1.0);
  const double dimakis = dimakis_predicted_transmissions(n, 1e-3, 1.0);
  const double narayanan = narayanan_predicted_transmissions(n, 1e-3, 1.0);
  EXPECT_LT(narayanan, dimakis);
  EXPECT_LT(dimakis, boyd);
}

TEST(Predictions, NarayananExponentApproachesOne) {
  // Fitted local exponent d log T / d log n falls towards 1 as n grows.
  const auto local_exponent = [](std::size_t n) {
    const double t1 = narayanan_predicted_transmissions(n, 1e-3, 1.0);
    const double t2 = narayanan_predicted_transmissions(2 * n, 1e-3, 1.0);
    return std::log2(t2 / t1);
  };
  const double at_small = local_exponent(1 << 12);
  const double at_large = local_exponent(1 << 30);
  EXPECT_LT(at_large, at_small);
  EXPECT_LT(at_large, 1.5);
  EXPECT_GT(at_large, 1.0);
}

TEST(Predictions, Validation) {
  EXPECT_THROW(narayanan_predicted_transmissions(2, 1e-3, 1.0),
               ArgumentError);
  EXPECT_THROW(narayanan_predicted_transmissions(100, 2.0, 1.0),
               ArgumentError);
}

// --------------------------------------------------- round accounting ----

TEST(ExchangeBeta, ModesProduceDocumentedGains) {
  EXPECT_DOUBLE_EQ(exchange_beta(BetaMode::kExpected, 100.0, 90, 110), 40.0);
  // Harmonic mean of (90, 110) = 99.0; beta = 2/5 * 99.
  EXPECT_NEAR(exchange_beta(BetaMode::kActualHarmonic, 100.0, 90, 110),
              0.4 * (2.0 * 90.0 * 110.0 / 200.0), 1e-12);
  EXPECT_DOUBLE_EQ(exchange_beta(BetaMode::kConvexRep, 100.0, 90, 110), 0.5);
  EXPECT_THROW(exchange_beta(BetaMode::kExpected, 100.0, 0, 10),
               ArgumentError);
}

TEST(ChargedLeafCost, ModelsScaleAsDocumented) {
  // GRG-mixing: linear in m when the square is ~1 radius across.
  const auto linear_small =
      charged_leaf_cost(LeafCostModel::kGrgMixing, 32, 1.0, 1e-3);
  const auto linear_large =
      charged_leaf_cost(LeafCostModel::kGrgMixing, 64, 1.0, 1e-3);
  EXPECT_GT(linear_large, linear_small);
  EXPECT_LT(linear_large, 3 * linear_small);  // ~2x plus the log factor

  // Quadratic model: 2x members -> ~4x cost.
  const auto quad_small =
      charged_leaf_cost(LeafCostModel::kQuadratic, 32, 1.0, 1e-3);
  const auto quad_large =
      charged_leaf_cost(LeafCostModel::kQuadratic, 64, 1.0, 1e-3);
  EXPECT_GT(quad_large, 3 * quad_small);
  EXPECT_LT(quad_large, 5 * quad_small);

  // Side/radius ratio quadratically inflates the mixing model.
  const auto wide =
      charged_leaf_cost(LeafCostModel::kGrgMixing, 32, 4.0, 1e-3);
  EXPECT_NEAR(static_cast<double>(wide) / linear_small, 16.0, 1.0);

  // Single node costs nothing.
  EXPECT_EQ(charged_leaf_cost(LeafCostModel::kGrgMixing, 1, 1.0, 1e-3),
            0u);
}

TEST(Names, EnumsHaveStableNames) {
  EXPECT_EQ(leaf_cost_model_name(LeafCostModel::kGrgMixing), "grg-mixing");
  EXPECT_EQ(leaf_cost_model_name(LeafCostModel::kQuadratic), "quadratic");
  EXPECT_EQ(beta_mode_name(BetaMode::kExpected), "expected(2E#/5)");
  EXPECT_EQ(beta_mode_name(BetaMode::kConvexRep), "convex(1/2)");
}

}  // namespace
}  // namespace geogossip::core
