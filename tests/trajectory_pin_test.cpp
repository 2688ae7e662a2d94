// Pins the trajectories of the paper's round protocol (affine-1level and
// affine-multi): per-replicate convergence and the three transmission
// categories.  The expected values were recorded from the protocol's
// closed-loop implementation before it moved onto the tick engine
// (sim::run_to_epsilon), so they hold any refactor to the same RNG stream
// and the same accounting.  A changed value means a changed trajectory,
// not a tolerance question.
//
// The depth-3 pins (n = 256, leaf threshold 12: 3 levels, 81 squares) also
// cover the §4.2 state machine; their values were recorded before both
// protocols read one core::Schedule, which must not move a single ULP.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "core/hierarchy_protocol.hpp"
#include "core/multilevel.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "geometry/sampling.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/rng.hpp"

namespace geogossip {
namespace {

using core::ProtocolKind;

struct Pinned {
  bool converged;
  std::uint64_t local;
  std::uint64_t long_range;
  std::uint64_t control;
};

void expect_pinned(bool converged, const sim::TxSnapshot& tx,
                   const Pinned& expected, const std::string& what) {
  EXPECT_EQ(converged, expected.converged) << what;
  EXPECT_EQ(tx[sim::TxCategory::kLocal], expected.local) << what;
  EXPECT_EQ(tx[sim::TxCategory::kLongRange], expected.long_range) << what;
  EXPECT_EQ(tx[sim::TxCategory::kControl], expected.control) << what;
}

std::vector<double> centred_gaussian(std::size_t n, Rng& rng) {
  auto x0 = sim::gaussian_field(n, rng);
  sim::center_and_normalize(x0);
  return x0;
}

TEST(TrajectoryPin, E5QuickRoundCellsAtN256) {
  exp::register_builtin_scenarios();
  const exp::Scenario scenario =
      exp::ScenarioRegistry::instance().make("e5-quick");
  const std::vector<Pinned> one_level{
      {true, 231137u, 1158u, 9730u},
      {true, 303117u, 1528u, 12710u},
      {true, 247739u, 1240u, 10398u},
      {true, 238564u, 1162u, 10002u},
  };
  const std::vector<Pinned> multi{
      {true, 253609u, 1156u, 10610u},
      {true, 223985u, 1040u, 9398u},
      {true, 314832u, 1530u, 13190u},
      {true, 224230u, 1150u, 9396u},
  };

  int cells = 0;
  for (std::size_t index = 0; index < scenario.cells.size(); ++index) {
    const exp::Cell& cell = scenario.cells[index];
    if (cell.n != 256) continue;
    const std::vector<Pinned>* pinned = nullptr;
    if (cell.kind == ProtocolKind::kAffineOneLevel) pinned = &one_level;
    if (cell.kind == ProtocolKind::kAffineMultilevel) pinned = &multi;
    if (pinned == nullptr) continue;
    ++cells;
    const std::size_t stream =
        cell.seed_stream == exp::kAutoSeedStream ? index : cell.seed_stream;
    for (std::uint32_t k = 0; k < pinned->size(); ++k) {
      const auto result = exp::run_replicate(
          cell, exp::replicate_seed(scenario.master_seed, stream, k));
      expect_pinned(result.converged, result.transmissions, (*pinned)[k],
                    cell.label + " replicate " + std::to_string(k));
    }
  }
  EXPECT_EQ(cells, 2);
}

TEST(TrajectoryPin, PaperLiteralBetaStopsAtTheDefaultStepCap) {
  // Clustered occupancies push alpha = beta / #(square) past 1 under the
  // paper-literal gain: the run diverges and stops at the protocol's
  // default cap of 64 k ln(k / eps) top rounds (4627 here).
  Rng rng(924);
  auto points = geometry::sample_clustered(
      800, geometry::Rect::unit_square(), 4, 0.05, rng);
  const graph::GeometricGraph g(std::move(points), 0.22);
  Rng field_rng(925);
  const auto x0 = centred_gaussian(g.node_count(), field_rng);

  core::TrialOptions options;
  options.eps = 5e-2;
  options.multilevel.beta_mode = core::BetaMode::kExpected;
  Rng trial_rng(926);
  const auto outcome = core::run_protocol_trial(
      ProtocolKind::kAffineMultilevel, g, x0, trial_rng, options);
  expect_pinned(outcome.converged, outcome.transmissions,
                {false, 10993165u, 28700u, 1122482u}, "paper-literal");
}

TEST(TrajectoryPin, DegenerateDeploymentIsOneOpenLoopPass) {
  // n = 24 is below the leaf threshold: the root is a leaf and the
  // protocol averages it once.
  Rng graph_rng(630);
  const auto g = graph::GeometricGraph::sample(24, 2.0, graph_rng);
  Rng rng(631);
  const auto x0 = centred_gaussian(g.node_count(), rng);

  core::TrialOptions options;
  options.eps = 1e-3;
  const auto outcome = core::run_protocol_trial(
      ProtocolKind::kAffineMultilevel, g, x0, rng, options);
  expect_pinned(outcome.converged, outcome.transmissions,
                {true, 914u, 0u, 48u}, "degenerate n = 24");
}


// ------------------------------------------------------------ depth 3 ----
// No preset or benchmark workload reaches depth 3 at quick scale; a leaf
// threshold of 12 does at n = 256.

graph::GeometricGraph depth3_graph() {
  Rng rng(256012);
  return graph::GeometricGraph::sample(256, 1.5, rng);
}

TEST(TrajectoryPin, Depth3AsyncAveragingTimes) {
  const auto g = depth3_graph();
  Rng rng(256013);
  core::HierarchyProtocolConfig config;
  config.leaf_threshold = 12.0;
  const core::HierarchicalAffineProtocol protocol(
      g, centred_gaussian(g.node_count(), rng), rng, config);
  const auto& hierarchy = protocol.hierarchy();
  ASSERT_EQ(hierarchy.levels(), 3);
  ASSERT_EQ(hierarchy.square_count(), 81u);
  // Square 1 has a single empty child, so its k is 3, not 4.
  std::vector<double> expected(81, 51.596879304360478);  // depth-2 leaves
  expected[0] = 84684.157866930866;
  expected[1] = 2127.6391447425176;
  for (std::size_t id = 2; id <= 16; ++id) expected[id] = 2187.0131334238085;
  for (std::size_t id = 0; id < expected.size(); ++id) {
    EXPECT_EQ(protocol.averaging_time(static_cast<int>(id)), expected[id])
        << "square " << id;
  }
}

TEST(TrajectoryPin, Depth3MultiRunsToEps) {
  const auto g = depth3_graph();
  Rng rng(256014);
  const auto x0 = centred_gaussian(g.node_count(), rng);
  core::MultilevelConfig config;
  config.leaf_threshold = 12.0;
  core::MultilevelAffineGossip protocol(g, x0, rng, config);
  ASSERT_EQ(protocol.hierarchy().levels(), 3);
  sim::RunConfig run;
  run.epsilon = config.eps;
  run.max_ticks = protocol.step_cap(0);
  const auto result = sim::run_to_epsilon(protocol, rng, run);
  EXPECT_EQ(result.ticks, 174u);
  EXPECT_EQ(result.final_error, 0.00096462646573339315);
  expect_pinned(result.converged, result.transmissions,
                {true, 3360304u, 33062u, 264906u}, "affine-multi depth 3");
  EXPECT_EQ(protocol.alpha_out_of_range(), 10108u);
}

TEST(TrajectoryPin, Depth3AsyncUnderATickCap) {
  // Uncapped, this run reaches eps after 41,943,828 ticks (about 1.7 s in
  // Release); the first 4M keep the pin cheap.
  const auto g = depth3_graph();
  Rng rng(256013);
  const auto x0 = centred_gaussian(g.node_count(), rng);
  core::HierarchyProtocolConfig config;
  config.leaf_threshold = 12.0;
  core::HierarchicalAffineProtocol protocol(g, x0, rng, config);
  sim::RunConfig run;
  run.epsilon = config.eps;
  run.max_ticks = 4'000'000;
  const auto result = sim::run_to_epsilon(protocol, rng, run);
  EXPECT_EQ(result.ticks, 4'000'000u);
  EXPECT_EQ(result.final_error, 0.13663157838461715);
  expect_pinned(result.converged, result.transmissions,
                {false, 2994818u, 2934u, 19171u}, "affine-async depth 3");
  EXPECT_EQ(protocol.far_exchanges(), 1391u);
  EXPECT_EQ(protocol.near_exchanges(), 1497409u);
  EXPECT_EQ(protocol.activations(), 2467u);
}

}  // namespace
}  // namespace geogossip
