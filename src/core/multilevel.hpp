// The paper's hierarchical affine gossip, as a round-based simulator with
// faithful transmission accounting.
//
// Structure follows §3 exactly, applied recursively per §4:
//   * the deployment square is partitioned per the hierarchy rule;
//   * averaging a square = (activate children; average each child once;
//     then rounds of: pick two distinct children uniformly, exchange their
//     representatives' values over measured greedy routes, apply the affine
//     jump beta = (2/5) E#(child), re-average both children recursively;
//     deactivate);
//   * leaves are charged the cost of nearest-neighbour averaging (a
//     LeafCostModel) and set to their mean.
//
// The TOP level is closed-loop: sim::run_to_epsilon drives one top-level
// round per engine step until the measured global error reaches the
// target epsilon, which is what the transmissions-to-eps benches report.
// Step 0 first runs the activation pass (every root child averaged once).
// Inner levels are open-loop on the core::Schedule's inner-round budgets,
// mirroring the protocol's counter-driven budgets.  A degenerate deployment
// (the root is a leaf, or has fewer than two non-empty children) is one
// open-loop averaging pass: a single step.
//
// With max_depth = 1 this degenerates to the paper's §3 one-level protocol;
// with BetaMode::kConvexRep it becomes the convex ablation (representatives
// average instead of jumping), isolating the contribution of non-convex
// affine combinations.
#ifndef GEOGOSSIP_CORE_MULTILEVEL_HPP
#define GEOGOSSIP_CORE_MULTILEVEL_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/round_protocol.hpp"
#include "core/schedule.hpp"
#include "geometry/hierarchy.hpp"
#include "gossip/base.hpp"
#include "graph/geometric_graph.hpp"
#include "support/rng.hpp"

namespace geogossip::core {

/// The schedule's five settings (ScheduleConfig: eps is the closed-loop
/// top-level target; max_depth = 1 reproduces the §3 one-level protocol)
/// plus the round protocol's own.
struct MultilevelConfig : ScheduleConfig {
  LeafCostModel leaf_cost = LeafCostModel::kGrgMixing;
  /// Affine gain.  Default: harmonic-of-actual-occupancies, which keeps the
  /// effective alphas in (0, 0.8) for every occupancy pair.  The paper's
  /// literal beta = (2/5) E# (kExpected) assumes every occupancy is within
  /// 10% of E# — true in the (log n)^8-leaf asymptotic regime, but at
  /// simulable leaf sizes (tens of sensors) an under-occupied square makes
  /// alpha = beta/m exceed 1 and the update amplifies; kExpected remains
  /// available for ablation E10 and the instability tests.
  BetaMode beta_mode = BetaMode::kActualHarmonic;
  /// Absolute bound of the noise injected after each idealized leaf
  /// averaging (Lemma 2 in vivo); 0 = perfect leaf averaging.
  double leaf_noise = 0.0;
  /// Charge Activate/Deactivate control traffic.
  bool charge_control = true;
};

class MultilevelAffineGossip final : public gossip::ValueProtocol {
 public:
  MultilevelAffineGossip(const graph::GeometricGraph& graph,
                         std::vector<double> x0, Rng& rng,
                         const MultilevelConfig& config);

  std::string_view name() const override { return "narayanan-multilevel"; }
  /// One top-level round (step 0 also runs the activation pass), or the
  /// whole open-loop pass of a degenerate deployment.
  void on_tick(const sim::Tick& tick) override;
  bool steps_are_rounds() const override { return true; }

  /// The engine step cap for a run: `requested`, or the default
  /// 64 k ln(k / eps) top rounds for the root's k non-empty children when
  /// `requested` is 0.  A degenerate deployment is always one step.
  std::uint64_t step_cap(std::uint64_t requested) const;

  const geometry::PartitionHierarchy& hierarchy() const noexcept {
    return schedule_.hierarchy();
  }
  /// Number of inner exchanges whose effective alpha = beta / occupancy
  /// fell outside the paper's (1/3, 1/2) window (occupancy fluctuation).
  std::uint64_t alpha_out_of_range() const noexcept {
    return alpha_out_of_range_;
  }

 protected:
  /// Serialized: the alpha-range counter.  The schedule and the route
  /// cache are deterministic products of the configuration.
  void snapshot_scratch(SnapshotWriter& w) const override;
  void restore_scratch(SnapshotReader& r) override;

 private:
  bool degenerate() const noexcept;
  /// Exchanges two uniform distinct `children`, then re-averages both.
  void exchange_round(std::span<const int> children);
  /// Open-loop recursive averaging of one square at its schedule budget.
  void average_square(int square_id);
  void leaf_average(int square_id);
  void exchange(int child_i, int child_j);
  /// `square` is hierarchy().square(square_id).
  void charge_activation(int square_id, const geometry::SquareInfo& square);

  MultilevelConfig config_;
  Schedule schedule_;
  /// Per leaf square: the charged leaf-averaging cost, computed once by
  /// the constructor.
  std::vector<std::uint64_t> leaf_charge_;
  RouteHopCache routes_;
  std::uint64_t alpha_out_of_range_ = 0;
};

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_MULTILEVEL_HPP
