// Greedy geographic routing (Dimakis et al. §"greedy geographic routing",
// used verbatim by the paper for all long-range packet exchanges).
//
// A packet at node v headed for a target position p is forwarded to the
// neighbour of v strictly closest to p (closer than v itself).  On a
// connected G(n, r) with r = Theta(sqrt(log n / n)) this advances Theta(r)
// towards p per hop w.h.p., giving O(sqrt(n / log n)) hops across constant
// distances — the O(sqrt(n)) transmissions-per-exchange term in the paper's
// accounting (experiment E6 measures this).
//
// Failure mode: a node with no neighbour closer to p is a dead end (possible
// on sparse or clustered deployments); results report it rather than loop.
//
// Three scans pick the next hop, chosen once per route from the graph's
// state.  Until a graph's routed hops reach mirror_switch_hops() a route
// scans the bucket-grid window around the node — the window the CSR build
// scans, with the CSR build's range predicate — or, when something else
// has already built the graph's CSR, the plain CSR row; neither scan
// builds anything, so a graph that only routes a little (the paper's
// affine protocols) never allocates its CSR.  After the switch a route
// builds the CSR if needed and the routing-ordered mirror, and scans the
// mirror, which prunes far neighbours unscanned.  All three return the
// strictly-closer neighbour of least squared distance, so they agree hop
// for hop — except on an EXACT tie in squared distance between two
// candidates, where the grid and CSR scans take the least id and the
// mirror scan the first in annulus order, lanes merged by least id.
// Random deployments never produce such a tie (coincident points would),
// so the switch point never changes a route there, and every byte pin
// holds on either side of it.  The mirror scan stays tie-oblivious on
// purpose: making it break ties by id doubles its cost per hop.
#ifndef GEOGOSSIP_ROUTING_GREEDY_HPP
#define GEOGOSSIP_ROUTING_GREEDY_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "geometry/vec2.hpp"
#include "graph/geometric_graph.hpp"

namespace geogossip::routing {

enum class RouteStatus {
  kArrived,    ///< reached the destination node / local minimum of target
  kDeadEnd,    ///< no strictly closer neighbour before reaching destination
  kHopBudget,  ///< exceeded the hop budget (routing loop guard)
};

struct RouteResult {
  RouteStatus status = RouteStatus::kDeadEnd;
  /// Node where the packet stopped.
  graph::NodeId final_node = 0;
  /// Transmissions used (= edges traversed).
  std::uint32_t hops = 0;

  bool arrived() const noexcept { return status == RouteStatus::kArrived; }
};

struct RouteOptions {
  /// 0 = automatic: 4 * ceil(diagonal / r) + 16.
  std::uint32_t max_hops = 0;
  /// When non-null, the visited node sequence (including source) is
  /// appended here.  The routers reserve() the full hop budget up front,
  /// so a buffer reused across rounds (clear(), keep capacity) makes
  /// traced routing allocation-free after the first call.
  std::vector<graph::NodeId>* trace = nullptr;
};

/// Routes from `source` towards the fixed node `destination` (position
/// known to the sender, per the geographic-gossip model).  Arrives when the
/// packet reaches `destination` itself.
RouteResult route_to_node(const graph::GeometricGraph& g,
                          graph::NodeId source, graph::NodeId destination,
                          const RouteOptions& options = {});

/// Routes from `source` towards an arbitrary position.  The packet stops at
/// the first node with no neighbour closer to `target` — i.e. the node
/// "nearest the random position" in the sense used by Dimakis et al.'s
/// target-sampling step.  This terminal condition always counts as arrival.
RouteResult route_to_position(const graph::GeometricGraph& g,
                              graph::NodeId source, geometry::Vec2 target,
                              const RouteOptions& options = {});

/// Routed hops after which greedy routing on `g` stops scanning the grid
/// (or CSR row) and builds and scans the routing-ordered mirror instead
/// (GeometricGraph::ensure_routing_mirror): the measured break-even of
/// what the switch builds against the mirror's per-hop saving over the
/// scan it replaces.  That is an eighth of a hop per expected arc while
/// `g` has no CSR (the switch builds CSR and mirror and replaces grid-scan
/// hops) and half a hop per expected arc once it has one (the mirror
/// alone, replacing CSR-row hops).  Computed from n and the expected
/// degree (graph/radius.hpp), so it never reads the CSR.  The routers
/// read the graph's unmirrored_hops() tally once per route and choose
/// the scan for the whole route there.
std::uint64_t mirror_switch_hops(const graph::GeometricGraph& g) noexcept;

/// Default hop budget used when RouteOptions::max_hops == 0.
std::uint32_t default_hop_budget(const graph::GeometricGraph& g);

}  // namespace geogossip::routing

#endif  // GEOGOSSIP_ROUTING_GREEDY_HPP
