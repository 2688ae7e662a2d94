// Pins the trajectories of the paper's round protocol (affine-1level and
// affine-multi): per-replicate convergence and the three transmission
// categories.  The expected values were recorded from the protocol's
// closed-loop implementation before it moved onto the tick engine
// (sim::run_to_epsilon), so they hold any refactor to the same RNG stream
// and the same accounting.  A changed value means a changed trajectory,
// not a tolerance question.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "geometry/sampling.hpp"
#include "graph/geometric_graph.hpp"
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

}  // namespace
}  // namespace geogossip
