#include "core/hierarchy_protocol.hpp"

#include <algorithm>
#include <cmath>

#include "core/affine.hpp"
#include "support/check.hpp"
#include "support/snapshot.hpp"

namespace geogossip::core {

using geometry::SquareInfo;
using graph::NodeId;

HierarchicalAffineProtocol::HierarchicalAffineProtocol(
    const graph::GeometricGraph& graph, std::vector<double> x0, Rng& rng,
    const HierarchyProtocolConfig& config)
    : ValueProtocol(graph, std::move(x0), rng),
      config_(config),
      schedule_(graph.points(), graph.region(), config),
      routes_(graph) {
  GG_CHECK_ARG(config.budget_constant > 0.0, "budget_constant > 0");
  GG_CHECK_ARG(config.latency_factor >= 1.0, "latency_factor >= 1");

  const std::size_t n = graph.node_count();
  local_on_.assign(n, 0);
  global_on_.assign(n, 0);
  counter_.assign(n, 0);
  square_active_.assign(hierarchy().square_count(), 0);

  compute_budgets();

  // Same-leaf neighbour lists for Near (see header).
  leaf_peer_start_.assign(n + 1, 0);
  leaf_peers_.reserve(2 * graph.adjacency().edge_count());
  for (std::uint32_t node = 0; node < n; ++node) {
    const int leaf = hierarchy().leaf_of(node);
    for (const NodeId u : graph.neighbors(node)) {
      if (hierarchy().leaf_of(u) == leaf) leaf_peers_.push_back(u);
    }
    leaf_peer_start_[node + 1] = leaf_peers_.size();
  }
  leaf_peers_.shrink_to_fit();  // only the in-leaf subset is kept

  // Initialization (§4.2): only the root representative's global.state is on.
  const auto& root = hierarchy().square(hierarchy().root());
  GG_CHECK(root.representative >= 0, "root square has no representative");
  global_on_[static_cast<std::size_t>(root.representative)] = 1;
}

void HierarchicalAffineProtocol::compute_budgets() {
  const std::size_t squares = hierarchy().square_count();
  t_avg_.assign(squares, 1.0);
  p_far_.assign(squares, 0.0);
  budget_.assign(squares, 1);

  // Post-order (children have larger arena indices than parents by
  // construction, so a reverse sweep is a valid post-order).
  for (std::size_t id = squares; id-- > 0;) {
    const int square_id = static_cast<int>(id);
    const SquareInfo& sq = hierarchy().square(square_id);
    const double eps_d = schedule_.eps(square_id);
    if (sq.is_leaf()) {
      const double side_over_radius = sq.rect.width() / graph_->radius();
      const double mixing =
          std::max(1.0, side_over_radius * side_over_radius);
      const double m = std::max(2.0, sq.expected_occupancy);
      t_avg_[id] = config_.budget_constant * mixing *
                   2.0 * std::log(m / eps_d);
    } else {
      const auto children = schedule_.children(square_id);
      double child_latency = 1.0;
      for (const int child : children) {
        child_latency = std::max(
            child_latency, t_avg_[static_cast<std::size_t>(child)]);
      }
      const double k =
          std::max<double>(2.0, static_cast<double>(children.size()));
      t_avg_[id] = config_.round_constant * std::log(k / eps_d) *
                   config_.latency_factor * child_latency;
    }
    p_far_[id] =
        std::min(1.0, 1.0 / (config_.latency_factor * t_avg_[id]));
    budget_[id] = static_cast<std::uint32_t>(
        std::max(1.0, std::ceil(t_avg_[id])));
  }
}

double HierarchicalAffineProtocol::averaging_time(int square_id) const {
  GG_CHECK_ARG(square_id >= 0 &&
                   static_cast<std::size_t>(square_id) < t_avg_.size(),
               "square id out of range");
  return t_avg_[static_cast<std::size_t>(square_id)];
}

void HierarchicalAffineProtocol::activate_square(int square_id) {
  const SquareInfo& sq = hierarchy().square(square_id);
  square_active_[static_cast<std::size_t>(square_id)] = 1;
  ++activations_;
  if (sq.is_leaf()) {
    // Level 1: flood local.state = on; one broadcast per member.
    for (const auto member : sq.members) local_on_[member] = 1;
    meter_.add(sim::TxCategory::kControl, sq.members.size());
    return;
  }
  const auto rep = static_cast<NodeId>(sq.representative);
  for (const int child : schedule_.children(square_id)) {
    const auto child_rep =
        static_cast<NodeId>(hierarchy().square(child).representative);
    global_on_[child_rep] = 1;
    counter_[child_rep] = 0;
    meter_.add(sim::TxCategory::kControl, routes_.hops(rep, child_rep));
  }
}

void HierarchicalAffineProtocol::deactivate_square(int square_id) {
  const SquareInfo& sq = hierarchy().square(square_id);
  square_active_[static_cast<std::size_t>(square_id)] = 0;
  if (sq.is_leaf()) {
    for (const auto member : sq.members) local_on_[member] = 0;
    meter_.add(sim::TxCategory::kControl, sq.members.size());
    return;
  }
  const auto rep = static_cast<NodeId>(sq.representative);
  for (const int child : schedule_.children(square_id)) {
    const auto child_rep =
        static_cast<NodeId>(hierarchy().square(child).representative);
    global_on_[child_rep] = 0;
    meter_.add(sim::TxCategory::kControl, routes_.hops(rep, child_rep));
  }
}

void HierarchicalAffineProtocol::near(NodeId node) {
  // Average with a uniform neighbour inside the same leaf square.
  const std::uint64_t begin = leaf_peer_start_[node];
  const std::uint64_t count = leaf_peer_start_[node + 1] - begin;
  if (count == 0) return;
  const NodeId chosen = leaf_peers_[begin + rng_->below(count)];
  apply_pair_average(node, chosen);
  meter_.add(sim::TxCategory::kLocal, 2);
  ++near_exchanges_;
}

void HierarchicalAffineProtocol::far(NodeId node, int square_id) {
  const SquareInfo& sq = hierarchy().square(square_id);
  if (sq.parent < 0) return;  // the root has no siblings

  // Uniform non-empty sibling square (non-empty: it has a representative).
  std::uint32_t candidates = 0;
  int chosen = -1;
  for (const int sibling : schedule_.children(sq.parent)) {
    if (sibling == square_id) continue;
    ++candidates;
    if (rng_->below(candidates) == 0) chosen = sibling;
  }
  if (chosen < 0) return;

  const auto& sibling = hierarchy().square(chosen);
  const auto peer = static_cast<NodeId>(sibling.representative);

  // Value there and value back, over the one route per unordered pair.
  meter_.add(sim::TxCategory::kLongRange, 2ull * routes_.hops(node, peer));

  const double beta =
      exchange_beta(BetaMode::kActualHarmonic, sq.expected_occupancy,
                    std::max<std::size_t>(1, sq.occupancy()),
                    std::max<std::size_t>(1, sibling.occupancy()));
  apply_affine_jump(node, peer, beta);
  ++far_exchanges_;

  // §4.2 Far step 5 + the post-Far reset: both representatives restart
  // their squares' averaging.  The literal pseudocode re-activates via the
  // "counter == 0" check, but the counter is incremented again within the
  // same tick (step 3), so the check can never fire after a Far; we follow
  // the evident intent of §3 step 5 ("A is ... activated by s_i") and
  // re-activate both squares immediately.
  counter_[node] = 0;
  counter_[peer] = 0;
  if (square_active_[static_cast<std::size_t>(square_id)] == 0) {
    activate_square(square_id);
  }
  if (square_active_[static_cast<std::size_t>(chosen)] == 0) {
    activate_square(chosen);
  }
}

void HierarchicalAffineProtocol::on_tick(const sim::Tick& tick) {
  const NodeId node = tick.node;
  const int level = hierarchy().node_level(node);

  if (level == 0) {
    if (local_on_[node] != 0) near(node);
    return;
  }

  const int square_id = hierarchy().represented_square(node);
  GG_CHECK(square_id >= 0, "levelled node without a represented square");
  const auto sid = static_cast<std::size_t>(square_id);

  if (global_on_[node] != 0) {
    if (counter_[node] == 0 && square_active_[sid] == 0) {
      activate_square(square_id);
    }
    // Separation invariant (§6): no long-range exchange while the own
    // square is still averaging — enforced deterministically (see header).
    if (square_active_[sid] == 0 &&
        hierarchy().square(square_id).parent >= 0 &&
        rng_->bernoulli(p_far_[sid])) {
      far(node, square_id);
    }
  }

  if (local_on_[node] != 0) near(node);

  const bool is_root = hierarchy().square(square_id).parent < 0;
  if (global_on_[node] != 0 && !is_root) {
    if (counter_[node] >= budget_[sid]) {
      if (square_active_[sid] != 0) deactivate_square(square_id);
    } else {
      ++counter_[node];
    }
  } else if (global_on_[node] != 0) {
    // The root never deactivates; its counter only gates re-activation.
    if (counter_[node] < budget_[sid]) ++counter_[node];
  }
}

void HierarchicalAffineProtocol::snapshot_scratch(SnapshotWriter& w) const {
  w.u8_span(local_on_);
  w.u8_span(global_on_);
  w.u32_span(counter_);
  w.u8_span(square_active_);
  w.u64(far_exchanges_);
  w.u64(near_exchanges_);
  w.u64(activations_);
}

void HierarchicalAffineProtocol::restore_scratch(SnapshotReader& r) {
  auto restore_u8 = [&r](std::vector<std::uint8_t>& target,
                         const char* what) {
    auto restored = r.u8_span();
    GG_CHECK_ARG(restored.size() == target.size(),
                 std::string("HierarchicalAffineProtocol::restore: ") +
                     what + " size mismatch");
    target = std::move(restored);
  };
  restore_u8(local_on_, "local_on");
  restore_u8(global_on_, "global_on");
  auto counters = r.u32_span();
  GG_CHECK_ARG(counters.size() == counter_.size(),
               "HierarchicalAffineProtocol::restore: counter size mismatch");
  counter_ = std::move(counters);
  restore_u8(square_active_, "square_active");
  far_exchanges_ = r.u64();
  near_exchanges_ = r.u64();
  activations_ = r.u64();
}

}  // namespace geogossip::core
