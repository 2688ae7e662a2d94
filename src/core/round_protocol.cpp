#include "core/round_protocol.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/affine.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"

namespace geogossip::core {

std::string_view leaf_cost_model_name(LeafCostModel model) noexcept {
  switch (model) {
    case LeafCostModel::kGrgMixing:
      return "grg-mixing";
    case LeafCostModel::kQuadratic:
      return "quadratic";
  }
  return "?";
}

std::string_view beta_mode_name(BetaMode mode) noexcept {
  switch (mode) {
    case BetaMode::kExpected:
      return "expected(2E#/5)";
    case BetaMode::kActualHarmonic:
      return "harmonic(2HM/5)";
    case BetaMode::kConvexRep:
      return "convex(1/2)";
  }
  return "?";
}

double exchange_beta(BetaMode mode, double expected_occupancy,
                     std::size_t occupancy_i, std::size_t occupancy_j) {
  GG_CHECK_ARG(occupancy_i >= 1 && occupancy_j >= 1,
               "exchange_beta: empty squares cannot exchange");
  switch (mode) {
    case BetaMode::kExpected:
      return far_beta(expected_occupancy);
    case BetaMode::kActualHarmonic: {
      const double mi = static_cast<double>(occupancy_i);
      const double mj = static_cast<double>(occupancy_j);
      return kBetaFraction * (2.0 * mi * mj / (mi + mj));
    }
    case BetaMode::kConvexRep:
      return 0.5;
  }
  throw ArgumentError("exchange_beta: bad mode");
}

std::uint64_t charged_leaf_cost(LeafCostModel model, std::size_t m,
                                double side_over_radius, double eps) {
  GG_CHECK_ARG(m >= 1, "charged_leaf_cost: m >= 1");
  GG_CHECK_ARG(eps > 0.0 && eps < 1.0, "charged_leaf_cost: eps in (0,1)");
  if (m == 1) return 0;  // nothing to average

  const double mm = static_cast<double>(m);
  const double log_term = std::log(mm / eps);
  double exchanges = 0.0;
  switch (model) {
    case LeafCostModel::kGrgMixing: {
      const double mixing = std::max(1.0, side_over_radius * side_over_radius);
      exchanges = mm * mixing * log_term;
      break;
    }
    case LeafCostModel::kQuadratic:
      exchanges = mm * mm * log_term;
      break;
  }
  // Each nearest-neighbour exchange is 2 transmissions.
  return static_cast<std::uint64_t>(std::llround(2.0 * exchanges));
}

std::uint32_t RouteHopCache::route_hops(graph::NodeId a,
                                         graph::NodeId b) const {
  const auto route = routing::route_to_node(*graph_, a, b);
  std::uint32_t hops = route.hops;
  if (!route.arrived()) {
    const double dist =
        geometry::distance(graph_->position(a), graph_->position(b));
    hops += static_cast<std::uint32_t>(std::ceil(dist / graph_->radius()));
  }
  return hops;
}

RouteHopCache::Slot& RouteHopCache::find(std::uint64_t key) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t at =
      static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  while (slots_[at].key != key && slots_[at].key != Slot::kEmpty) {
    at = (at + 1) & mask;
  }
  return slots_[at];
}

void RouteHopCache::grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(slots_.size());
  for (const Slot& slot : old) {
    if (slot.key != Slot::kEmpty) find(slot.key) = slot;
  }
}

std::uint32_t RouteHopCache::hops(graph::NodeId from, graph::NodeId to) {
  const auto [a, b] = std::minmax(from, to);
  const std::uint64_t key = (std::uint64_t{a} << 32) | b;
  Slot* slot = &find(key);
  if (slot->key == key) return slot->hops;
  if (2 * (size_ + 1) > slots_.size()) {
    grow();
    slot = &find(key);
  }
  slot->key = key;
  slot->hops = route_hops(a, b);
  ++size_;
  return slot->hops;
}

}  // namespace geogossip::core
