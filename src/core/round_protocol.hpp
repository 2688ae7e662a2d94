// Accounting primitives for the round-based simulators (§3's protocol and
// its recursive generalization).
//
// The paper's cost model charges (leaf models: README "Substitutions from
// the paper"):
//   * a long-range exchange: measured greedy-route hops, there and back;
//   * local averaging inside a square ("protocol A" at the leaves): the
//     epsilon-averaging cost of nearest-neighbour gossip on the induced
//     subgraph.  Two charge models are provided:
//       kGrgMixing  — c * m * max(1, (L/r)^2) * ln(m/eps) exchanges, the
//                     Boyd et al. Theta(m * T_mix * log(1/eps)) bound with
//                     T_mix ~ (L/r)^2 for a GRG patch of side L and radius r
//                     (default; matches measured Near behaviour),
//       kQuadratic  — c * m^2 * ln(m/eps), the conservative quadratic bound
//                     quoted by the paper (§5 "averaging time that is
//                     quadratic").
//     The §4.2 machine (hierarchy_protocol.hpp) runs the Near gossip
//     itself instead of charging a model.
//   * activation/deactivation control: one transmission per square member
//     (level-1 flood) or one routed packet per child representative.
#ifndef GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP
#define GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/geometric_graph.hpp"

namespace geogossip::core {

enum class LeafCostModel { kGrgMixing, kQuadratic };

std::string_view leaf_cost_model_name(LeafCostModel model) noexcept;

/// How the affine gain beta is derived for an exchange between squares of
/// actual occupancy (m_i, m_j) and common expected occupancy E#.
enum class BetaMode {
  kExpected,        ///< beta = (2/5) E#   — paper-literal (§3 / Far)
  kActualHarmonic,  ///< beta = (2/5) * harmonic_mean(m_i, m_j)
  kConvexRep,       ///< beta = 1/2 — representatives merely average
                    ///< (the convex-combination ablation: no amplification)
};

std::string_view beta_mode_name(BetaMode mode) noexcept;

/// Affine gain for one exchange under `mode`.
double exchange_beta(BetaMode mode, double expected_occupancy,
                     std::size_t occupancy_i, std::size_t occupancy_j);

/// Charged transmissions for averaging a leaf square of `m` members whose
/// side-to-radius ratio is `side_over_radius`, to accuracy `eps`.
std::uint64_t charged_leaf_cost(LeafCostModel model, std::size_t m,
                                double side_over_radius, double eps);

/// Memoized greedy-route hop counts between node pairs, keyed on the
/// unordered pair packed as (min << 32) | max.  A route that greedy
/// routing does not deliver (rare on a connected G(n, r) at the paper's
/// radius) is charged its hops so far plus the straight-line estimate
/// ceil(distance / r), so the accounting stays defined.  Each distinct
/// pair is routed once, min to max, on its first lookup.  The memo is a
/// flat open-addressed table (power-of-two capacity, linear probing,
/// doubled at 50% load): the round protocols look up the same few pairs
/// millions of times.  Never serialized: greedy routes are deterministic,
/// so a cold cache recomputes identical counts.
class RouteHopCache {
 public:
  explicit RouteHopCache(const graph::GeometricGraph& graph)
      : graph_(&graph), slots_(64) {}

  std::uint32_t hops(graph::NodeId from, graph::NodeId to);

 private:
  struct Slot {
    /// No packed pair reaches it: both ids would be 2^32 - 1.
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    std::uint64_t key = kEmpty;
    std::uint32_t hops = 0;
  };

  std::uint32_t route_hops(graph::NodeId a, graph::NodeId b) const;
  /// Slot holding `key`, or the empty slot where it belongs.
  Slot& find(std::uint64_t key);
  void grow();

  const graph::GeometricGraph* graph_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64 - 6;  ///< 64 - log2(capacity): the Fibonacci-hash shift
};

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP
