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
      hierarchy_(graph.points(), graph.region(),
                 practical_hierarchy(config.leaf_threshold, config.max_depth)),
      routes_(graph) {
  GG_CHECK_ARG(config.eps > 0.0 && config.eps < 1.0, "eps in (0,1)");
  GG_CHECK_ARG(config.max_depth >= 1, "max_depth >= 1");
  GG_CHECK_ARG(config.eps_decay > 1.0, "eps_decay > 1");
  GG_CHECK_ARG(config.round_constant > 0.0, "round_constant > 0");
  const std::size_t squares = hierarchy_.square_count();
  children_.resize(squares);
  rounds_.resize(squares);
  leaf_charge_.resize(squares);
  for (std::size_t id = 0; id < squares; ++id) {
    const SquareInfo& square = hierarchy_.square(static_cast<int>(id));
    children_[id] = nonempty_children(square);
    rounds_[id] = rounds_for(square);
    if (square.is_leaf() && !square.members.empty() &&
        config_.leaf_cost != LeafCostModel::kMeasured) {
      leaf_charge_[id] = charged_leaf_cost(
          config_.leaf_cost, square.members.size(),
          square.rect.width() / graph_->radius(), eps_at_depth(square.depth),
          config_.leaf_constant);
    }
  }
}

bool MultilevelAffineGossip::degenerate() const noexcept {
  // A leaf root has no children, so this also covers it.
  return children_[static_cast<std::size_t>(hierarchy_.root())].size() < 2;
}

std::uint64_t MultilevelAffineGossip::step_cap(std::uint64_t requested) const {
  if (degenerate()) return 1;
  if (requested != 0) return requested;
  const double k = static_cast<double>(
      children_[static_cast<std::size_t>(hierarchy_.root())].size());
  return static_cast<std::uint64_t>(
      std::ceil(64.0 * k * std::log(k / config_.eps)));
}

double MultilevelAffineGossip::eps_at_depth(int depth) const {
  return config_.eps / std::pow(config_.eps_decay, depth);
}

std::vector<int> MultilevelAffineGossip::nonempty_children(
    const SquareInfo& square) const {
  std::vector<int> out;
  out.reserve(square.children.size());
  for (const int child : square.children) {
    if (!hierarchy_.square(child).members.empty()) out.push_back(child);
  }
  return out;
}

std::uint32_t MultilevelAffineGossip::rounds_for(
    const SquareInfo& square) const {
  const auto children = nonempty_children(square);
  if (children.size() < 2) return 0;
  const double k = static_cast<double>(children.size());
  const double eps = eps_at_depth(square.depth);
  return static_cast<std::uint32_t>(
      std::ceil(config_.round_constant * k * std::log(k / eps)));
}

void MultilevelAffineGossip::charge_activation(const SquareInfo& square) {
  if (!config_.charge_control) return;
  if (square.is_leaf()) {
    // Level-1 activation + deactivation: flood the square twice.
    meter_.add(sim::TxCategory::kControl, 2 * square.members.size());
    return;
  }
  // Higher level: one routed control packet per child representative,
  // on activation and deactivation.
  const NodeId rep = static_cast<NodeId>(square.representative);
  for (const int child : square.children) {
    const auto& child_info = hierarchy_.square(child);
    if (child_info.representative < 0) continue;
    const auto hops =
        routes_.hops(rep, static_cast<NodeId>(child_info.representative));
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
  const int leaf_id = hierarchy_.leaf_of(members.front());
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
      if (hierarchy_.leaf_of(u) != leaf_id) continue;
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
  const SquareInfo& square = hierarchy_.square(square_id);
  const auto& members = square.members;
  if (members.size() <= 1) return;

  if (config_.leaf_cost == LeafCostModel::kMeasured) {
    measured_leaf_average(square, eps_at_depth(square.depth));
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
  const auto& info_i = hierarchy_.square(child_i);
  const auto& info_j = hierarchy_.square(child_j);
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

void MultilevelAffineGossip::exchange_round(const std::vector<int>& children) {
  const std::size_t i = rng_->below(children.size());
  const std::size_t j = rng_->below_excluding(children.size(), i);
  exchange(children[i], children[j]);
  average_square(children[i]);
  average_square(children[j]);
}

void MultilevelAffineGossip::average_square(int square_id) {
  const SquareInfo& square = hierarchy_.square(square_id);
  if (square.members.empty()) return;

  charge_activation(square);
  if (square.is_leaf()) {
    leaf_average(square_id);
    return;
  }

  const auto id = static_cast<std::size_t>(square_id);
  const std::vector<int>& children = children_[id];
  if (children.size() == 1) {
    average_square(children.front());
    return;
  }

  // Activation: every child is averaged once before exchanges begin.
  for (const int child : children) average_square(child);

  for (std::uint32_t round = 0; round < rounds_[id]; ++round) {
    exchange_round(children);
  }
}

void MultilevelAffineGossip::on_tick(const sim::Tick& tick) {
  if (degenerate()) {
    average_square(hierarchy_.root());
    return;
  }
  const std::vector<int>& root_children =
      children_[static_cast<std::size_t>(hierarchy_.root())];
  if (tick.index == 0) {
    charge_activation(hierarchy_.square(hierarchy_.root()));
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
