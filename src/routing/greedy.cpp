#include "routing/greedy.hpp"

#include <cmath>
#include <span>

#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace geogossip::routing {

using geometry::Vec2;
using geometry::distance_sq;
using graph::GeometricGraph;
using graph::NodeId;

std::uint32_t default_hop_budget(const GeometricGraph& g) {
  const double diagonal = std::sqrt(g.region().width() * g.region().width() +
                                    g.region().height() * g.region().height());
  return 4 * static_cast<std::uint32_t>(std::ceil(diagonal / g.radius())) + 16;
}

namespace {

/// mirror_switch_hops() is one routed hop per kArcsPerSwitchHop arcs: the
/// break-even of the mirror, its build cost per arc over what it saves
/// per hop.  Measured with route_to_node between random pairs on
/// sample(n, 1.2) graphs (gcc 12 Release, 4-vCPU Xeon, median of 7
/// graphs): the build costs 11-12 ns per arc, and a mirrored hop is 19 ns
/// cheaper than a CSR-row hop at n = 2048 and 25-32 ns cheaper at
/// n = 32768, so the mirror repays itself after 0.4-0.6 routed hops per
/// arc.  Per replicate, the paper's affine protocols route under 0.1 hops
/// per arc and never build it; Dimakis et al.'s gossip routes 70-100 and
/// path averaging about 1.2, and both switch early in the run.
constexpr std::uint64_t kArcsPerSwitchHop = 2;

// Registered when the program loads, not on the first route, so every
// trace carries them, zeros included: a trace reader can tell a sweep
// that never routed (or never routed on a mirror) from one that lost its
// routing_mirror span.
const obs::CounterId c_routes = obs::counter("routing.routes");
const obs::CounterId c_hops = obs::counter("routing.hops");
const obs::CounterId c_unmirrored = obs::counter("routing.unmirrored_hops");
const obs::CounterId c_pruned = obs::counter("routing.pruned_candidates");
const obs::CounterId c_dead = obs::counter("routing.dead_ends");
const obs::CounterId c_budget = obs::counter("routing.hop_budget_exceeded");

/// Single greedy step: the neighbour strictly closest to `target` (closer
/// than `current` itself), or `current` when none is — the sentinel avoids
/// std::optional in the per-hop loop.  Endpoints are validated and the
/// mirror scan chosen (use_mirror) ONCE at route entry; every id scanned
/// here comes out of the graph's own CSR, so the inner loop carries no
/// bounds checks or mirror checks (the _unchecked accessors), and the
/// spatially renumbered node ids (GeometricGraph::sample) keep the
/// position reads cache-local.
/// `here_sq` must equal distance_sq(positions[current], target); route
/// loops carry it across hops (the winning candidate's distance IS the
/// next hop's here_sq), saving a recomputation per hop.  On return it
/// holds the winner's squared distance.
inline NodeId greedy_step(const GeometricGraph& g,
                          std::span<const Vec2> positions, NodeId current,
                          Vec2 target, double& here_sq_io,
                          std::uint64_t& pruned_io) noexcept {
  // Scans the routing-ordered adjacency (farthest annulus first).  Two
  // structural optimizations, both exact:
  //  * Triangle-inequality pruning: dist(u, target) >= here - |u - c|,
  //    and the per-entry radius bound only shrinks along the scan, so
  //    once it rules out the next entry it rules out all remaining ones
  //    — break.
  //  * Four independent min-lanes inside each quad: a single-lane
  //    compare-and-keep is a loop-carried dependency (~5 cycles per
  //    candidate); independent lanes let the loads and multiplies of
  //    consecutive candidates overlap.
  const auto ids = g.routing_ids_unchecked(current);
  const auto radii = g.routing_radii_unchecked(current);
  const double here_sq = here_sq_io;
  const double here = std::sqrt(here_sq);
  double best_sq[4] = {here_sq, here_sq, here_sq, here_sq};
  NodeId best[4] = {current, current, current, current};
  const std::size_t count = ids.size();
  std::size_t j = 0;
  double running_best = here_sq;
  for (; j + 4 <= count; j += 4) {
    // radii[j] is the largest remaining |u - c|: if even its bound cannot
    // beat the best so far, no remaining candidate can.
    const double bound = here - static_cast<double>(radii[j]);
    if (bound > 0.0 && bound * bound >= running_best) break;
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const NodeId u = ids[j + lane];
      const double d_sq = distance_sq(positions[u], target);
      if (d_sq < best_sq[lane]) {
        best_sq[lane] = d_sq;
        best[lane] = u;
      }
    }
    running_best = std::min(std::min(best_sq[0], best_sq[1]),
                            std::min(best_sq[2], best_sq[3]));
  }
  for (; j < count; ++j) {
    const double bound = here - static_cast<double>(radii[j]);
    const double live = std::min(running_best, best_sq[0]);
    if (bound > 0.0 && bound * bound >= live) break;
    const NodeId u = ids[j];
    const double d_sq = distance_sq(positions[u], target);
    if (d_sq < best_sq[0]) {
      best_sq[0] = d_sq;
      best[0] = u;
    }
  }
  double merged_sq = best_sq[0];
  NodeId merged = best[0];
  for (std::size_t lane = 1; lane < 4; ++lane) {
    if (best_sq[lane] < merged_sq ||
        (best_sq[lane] == merged_sq && best[lane] < merged)) {
      merged_sq = best_sq[lane];
      merged = best[lane];
    }
  }
  here_sq_io = merged_sq;
  pruned_io += count - j;  // entries the annulus bound ruled out unscanned
  return merged;
}

/// greedy_step's contract on the plain CSR row, for routes that run before
/// the graph has a mirror: the strictly-closer neighbour of least squared
/// distance, or `current`.  Ascending ids, strict `<` and a branch-free
/// select, so an exact tie would go to the least id (see greedy.hpp).
inline NodeId csr_step(const graph::CsrGraph& adjacency,
                       std::span<const Vec2> positions, NodeId current,
                       Vec2 target, double& here_sq_io) noexcept {
  double best_sq = here_sq_io;
  NodeId best = current;
  for (const NodeId u : adjacency.neighbors_unchecked(current)) {
    const double d_sq = distance_sq(positions[u], target);
    const bool closer = d_sq < best_sq;
    best_sq = closer ? d_sq : best_sq;
    best = closer ? u : best;
  }
  here_sq_io = best_sq;
  return best;
}

/// One hop by the scan the route chose at entry: a compile-time choice, so
/// the per-hop loop carries no branch on it.
template <bool kMirrored>
inline NodeId step(const GeometricGraph& g, std::span<const Vec2> positions,
                   NodeId current, Vec2 target, double& here_sq_io,
                   std::uint64_t& pruned_io) noexcept {
  if constexpr (kMirrored) {
    return greedy_step(g, positions, current, target, here_sq_io, pruned_io);
  } else {
    return csr_step(g.adjacency(), positions, current, target, here_sq_io);
  }
}

/// Whether this route scans the mirror.  Until the graph's CSR-phase hops
/// reach mirror_switch_hops() the mirror would not repay its build, so the
/// route scans the CSR row; the first route past it builds the mirror.
bool use_mirror(const GeometricGraph& g) {
  if (g.routing_mirror_built()) return true;
  if (g.unmirrored_hops() < mirror_switch_hops(g)) return false;
  g.ensure_routing_mirror();
  return true;
}

/// Route-granularity bookkeeping: one tally add and, when telemetry is
/// on, a handful of counter bumps per finished route — nothing per hop.
void finish_route(const GeometricGraph& g, const RouteResult& result,
                  bool mirrored, std::uint64_t pruned) {
  if (!mirrored) g.add_unmirrored_hops(result.hops);
  if (!obs::enabled()) return;
  obs::add(c_routes);
  obs::add(c_hops, result.hops);
  if (!mirrored) obs::add(c_unmirrored, result.hops);
  obs::add(c_pruned, pruned);
  if (result.status == RouteStatus::kDeadEnd) obs::add(c_dead);
  if (result.status == RouteStatus::kHopBudget) obs::add(c_budget);
}

/// Pre-sizes a caller-supplied trace for the whole route up front; one
/// reservation instead of log(budget) growth doublings, and reused
/// capacity on the next round when the caller keeps the buffer.
void prepare_trace(std::vector<NodeId>* trace, std::uint32_t budget,
                   NodeId source) {
  if (trace == nullptr) return;
  trace->reserve(trace->size() + budget + 1);
  trace->push_back(source);
}

template <bool kMirrored>
RouteResult walk_to_node(const GeometricGraph& g, NodeId source,
                         NodeId destination, std::uint32_t budget,
                         std::vector<NodeId>* trace, std::uint64_t& pruned) {
  const auto positions = g.positions();
  const Vec2 target = positions[destination];
  RouteResult result;
  NodeId current = source;
  double cur_sq = distance_sq(positions[current], target);
  while (current != destination) {
    if (result.hops >= budget) {
      result.status = RouteStatus::kHopBudget;
      result.final_node = current;
      return result;
    }
    const NodeId next =
        step<kMirrored>(g, positions, current, target, cur_sq, pruned);
    if (next == current) {
      result.status = RouteStatus::kDeadEnd;
      result.final_node = current;
      return result;
    }
    current = next;
    ++result.hops;
    if (trace != nullptr) trace->push_back(current);
  }
  result.status = RouteStatus::kArrived;
  result.final_node = current;
  return result;
}

template <bool kMirrored>
RouteResult walk_to_position(const GeometricGraph& g, NodeId source,
                             Vec2 target, std::uint32_t budget,
                             std::vector<NodeId>* trace,
                             std::uint64_t& pruned) {
  const auto positions = g.positions();
  RouteResult result;
  NodeId current = source;
  double cur_sq = distance_sq(positions[current], target);
  while (true) {
    const NodeId next =
        step<kMirrored>(g, positions, current, target, cur_sq, pruned);
    if (next == current) {
      // Local minimum w.r.t. the target position: this IS the destination
      // for position-targeted routing.
      result.status = RouteStatus::kArrived;
      result.final_node = current;
      return result;
    }
    if (result.hops >= budget) {
      result.status = RouteStatus::kHopBudget;
      result.final_node = current;
      return result;
    }
    current = next;
    ++result.hops;
    if (trace != nullptr) trace->push_back(current);
  }
}

}  // namespace

std::uint64_t mirror_switch_hops(const GeometricGraph& g) noexcept {
  return g.adjacency().offsets().back() / kArcsPerSwitchHop;
}

RouteResult route_to_node(const GeometricGraph& g, NodeId source,
                          NodeId destination, const RouteOptions& options) {
  GG_CHECK_ARG(source < g.node_count() && destination < g.node_count(),
               "route endpoints out of range");
  const std::uint32_t budget =
      options.max_hops != 0 ? options.max_hops : default_hop_budget(g);
  prepare_trace(options.trace, budget, source);
  const bool mirrored = use_mirror(g);
  std::uint64_t pruned = 0;
  const RouteResult result =
      mirrored ? walk_to_node<true>(g, source, destination, budget,
                                    options.trace, pruned)
               : walk_to_node<false>(g, source, destination, budget,
                                     options.trace, pruned);
  finish_route(g, result, mirrored, pruned);
  return result;
}

RouteResult route_to_position(const GeometricGraph& g, NodeId source,
                              Vec2 target, const RouteOptions& options) {
  GG_CHECK_ARG(source < g.node_count(), "route source out of range");
  const std::uint32_t budget =
      options.max_hops != 0 ? options.max_hops : default_hop_budget(g);
  prepare_trace(options.trace, budget, source);
  const bool mirrored = use_mirror(g);
  std::uint64_t pruned = 0;
  const RouteResult result =
      mirrored ? walk_to_position<true>(g, source, target, budget,
                                        options.trace, pruned)
               : walk_to_position<false>(g, source, target, budget,
                                         options.trace, pruned);
  finish_route(g, result, mirrored, pruned);
  return result;
}

}  // namespace geogossip::routing
