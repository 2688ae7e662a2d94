#include "core/multilevel.hpp"

#include <cmath>

#include "core/affine.hpp"
#include "support/check.hpp"
#include "support/snapshot.hpp"

namespace geogossip::core {

using geometry::SquareInfo;
using graph::NodeId;

MultilevelAffineGossip::MultilevelAffineGossip(
    const graph::GeometricGraph& graph, std::vector<double> x0, Rng& rng,
    const MultilevelConfig& config)
    : ValueProtocol(graph, std::move(x0), rng),
      config_(config),
      schedule_(graph.points(), graph.region(), config),
      routes_(graph) {
  const auto& hierarchy = schedule_.hierarchy();
  leaf_charge_.resize(hierarchy.square_count());
  for (std::size_t id = 0; id < leaf_charge_.size(); ++id) {
    const SquareInfo& square = hierarchy.square(static_cast<int>(id));
    if (square.is_leaf() && !square.members.empty() &&
        config_.leaf_cost != LeafCostModel::kMeasured) {
      leaf_charge_[id] = charged_leaf_cost(
          config_.leaf_cost, square.members.size(),
          square.rect.width() / graph_->radius(),
          schedule_.eps(static_cast<int>(id)));
    }
  }
}

bool MultilevelAffineGossip::degenerate() const noexcept {
  // A leaf root has no children, so this also covers it.
  return schedule_.children(hierarchy().root()).size() < 2;
}

std::uint64_t MultilevelAffineGossip::step_cap(std::uint64_t requested) const {
  if (degenerate()) return 1;
  if (requested != 0) return requested;
  const double k =
      static_cast<double>(schedule_.children(hierarchy().root()).size());
  return static_cast<std::uint64_t>(
      std::ceil(64.0 * k * std::log(k / config_.eps)));
}

void MultilevelAffineGossip::charge_activation(int square_id,
                                               const SquareInfo& square) {
  if (!config_.charge_control) return;
  if (square.is_leaf()) {
    // Level-1 activation + deactivation: flood the square twice.
    meter_.add(sim::TxCategory::kControl, 2 * square.members.size());
    return;
  }
  // Higher level: one routed control packet per child representative,
  // on activation and deactivation.
  const NodeId rep = static_cast<NodeId>(square.representative);
  for (const int child : schedule_.children(square_id)) {
    const auto hops = routes_.hops(
        rep, static_cast<NodeId>(hierarchy().square(child).representative));
    meter_.add(sim::TxCategory::kControl, 2ull * hops);
  }
}

void MultilevelAffineGossip::measured_leaf_average(const SquareInfo& square,
                                                   double eps) {
  // Run actual nearest-neighbour gossip restricted to the square until the
  // in-square deviation shrinks by eps (relative to the in-square start).
  const auto& members = square.members;
  const std::size_t m = members.size();

  double mean = 0.0;
  for (const auto node : members) mean += value(node);
  mean /= static_cast<double>(m);
  double dev_sq = 0.0;
  for (const auto node : members) {
    dev_sq += (value(node) - mean) * (value(node) - mean);
  }
  if (dev_sq == 0.0) return;
  const double target_sq = dev_sq * eps * eps;

  // Membership test for neighbour filtering.
  const int leaf_id = hierarchy().leaf_of(members.front());
  const std::uint64_t tick_cap =
      1000ull * m * static_cast<std::uint64_t>(
                        std::ceil(std::log(static_cast<double>(m) / eps)));
  std::uint64_t ticks = 0;
  double current_sq = dev_sq;
  while (current_sq > target_sq && ticks < tick_cap) {
    ++ticks;
    const auto node = members[rng_->below(m)];
    // Uniform neighbour within the leaf square.
    std::uint32_t in_leaf = 0;
    NodeId chosen = node;
    for (const NodeId u : graph_->neighbors(node)) {
      if (hierarchy().leaf_of(u) != leaf_id) continue;
      ++in_leaf;
      if (rng_->below(in_leaf) == 0) chosen = u;
    }
    if (in_leaf == 0 || chosen == node) continue;
    // Update the in-square deviation incrementally.
    const double avg = 0.5 * (value(node) + value(chosen));
    const double di = value(node) - mean;
    const double dj = value(chosen) - mean;
    const double da = avg - mean;
    current_sq += 2.0 * da * da - di * di - dj * dj;
    apply_pair_average(node, chosen);
    meter_.add(sim::TxCategory::kLocal, 2);
  }
}

void MultilevelAffineGossip::leaf_average(int square_id) {
  const SquareInfo& square = hierarchy().square(square_id);
  const auto& members = square.members;
  if (members.size() <= 1) return;

  if (config_.leaf_cost == LeafCostModel::kMeasured) {
    measured_leaf_average(square, schedule_.eps(square_id));
    return;
  }

  // Idealized averaging: charge the model cost, set members to the mean,
  // optionally perturb (Lemma 2's imperfect-averaging noise).
  meter_.add(sim::TxCategory::kLocal,
             leaf_charge_[static_cast<std::size_t>(square_id)]);

  if (config_.leaf_noise == 0.0) {
    apply_average(members);
    return;
  }
  double mean = 0.0;
  for (const auto node : members) mean += value(node);
  mean /= static_cast<double>(members.size());
  std::vector<double> noise(members.size());
  double noise_mean = 0.0;
  for (double& nu : noise) {
    nu = rng_->uniform(-config_.leaf_noise, config_.leaf_noise);
    noise_mean += nu;
  }
  noise_mean /= static_cast<double>(members.size());
  for (std::size_t k = 0; k < members.size(); ++k) {
    // Centre the noise so the square sum (and hence the global average)
    // is conserved exactly, matching Lemma 2's +nu/-nu structure.
    set_value(members[k], mean + noise[k] - noise_mean);
  }
}

void MultilevelAffineGossip::exchange(int child_i, int child_j) {
  const auto& info_i = hierarchy().square(child_i);
  const auto& info_j = hierarchy().square(child_j);
  GG_CHECK(info_i.representative >= 0 && info_j.representative >= 0,
           "exchange between squares without representatives");
  const auto rep_i = static_cast<NodeId>(info_i.representative);
  const auto rep_j = static_cast<NodeId>(info_j.representative);

  // Two greedy-routed packets, value there and value back, over the one
  // route the cache keeps per unordered pair.
  meter_.add(sim::TxCategory::kLongRange, 2ull * routes_.hops(rep_i, rep_j));

  const double beta =
      exchange_beta(config_.beta_mode, info_i.expected_occupancy,
                    info_i.occupancy(), info_j.occupancy());

  // Effective square-level coefficients; the paper needs them in (1/3,1/2).
  const double alpha_i = beta / static_cast<double>(info_i.occupancy());
  const double alpha_j = beta / static_cast<double>(info_j.occupancy());
  if (config_.beta_mode != BetaMode::kConvexRep &&
      (!alpha_in_paper_range(alpha_i) || !alpha_in_paper_range(alpha_j))) {
    ++alpha_out_of_range_;
  }
  apply_affine_jump(rep_i, rep_j, beta);
}

void MultilevelAffineGossip::exchange_round(std::span<const int> children) {
  const std::size_t i = rng_->below(children.size());
  const std::size_t j = rng_->below_excluding(children.size(), i);
  exchange(children[i], children[j]);
  average_square(children[i]);
  average_square(children[j]);
}

void MultilevelAffineGossip::average_square(int square_id) {
  const SquareInfo& square = hierarchy().square(square_id);
  if (square.members.empty()) return;

  charge_activation(square_id, square);
  if (square.is_leaf()) {
    leaf_average(square_id);
    return;
  }

  const std::span<const int> children = schedule_.children(square_id);
  if (children.size() == 1) {
    average_square(children.front());
    return;
  }

  // Activation: every child is averaged once before exchanges begin.
  for (const int child : children) average_square(child);

  const std::uint32_t rounds = schedule_.rounds(square_id);
  for (std::uint32_t round = 0; round < rounds; ++round) {
    exchange_round(children);
  }
}

void MultilevelAffineGossip::on_tick(const sim::Tick& tick) {
  const int root = hierarchy().root();
  if (degenerate()) {
    average_square(root);
    return;
  }
  const std::span<const int> root_children = schedule_.children(root);
  if (tick.index == 0) {
    charge_activation(root, hierarchy().square(root));
    for (const int child : root_children) average_square(child);
  }
  exchange_round(root_children);
}

void MultilevelAffineGossip::snapshot_scratch(SnapshotWriter& w) const {
  w.u64(alpha_out_of_range_);
}

void MultilevelAffineGossip::restore_scratch(SnapshotReader& r) {
  alpha_out_of_range_ = r.u64();
}

}  // namespace geogossip::core
