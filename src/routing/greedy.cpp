#include "routing/greedy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>

#include "graph/radius.hpp"
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

/// mirror_switch_hops() is one routed hop per kArcsPerSwitchHop* expected
/// arcs: the break-even of what the switch builds, per arc, over what the
/// mirror saves per hop against the scan it replaces.  Measured on
/// sample(n, 1.2) graphs (gcc 12 Release, 4-vCPU Xeon): the CSR costs
/// 12-14 ns per arc and the mirror 11-13 ns; a mirrored hop costs 63-136
/// ns at n = 2048..32768, a CSR-row hop 77-142 ns and a grid-scan hop
/// 200-240 ns between random pairs (median of 7 graphs), about 280 ns
/// inside a path-averaging replicate at n = 4096.
///  * No CSR yet: the switch builds CSR and mirror and replaces grid-scan
///    hops, and repays itself after 0.11-0.25 routed hops per arc.  Per
///    replicate, the paper's affine round protocols route at most 0.085
///    hops per expected arc (n = 256..32768) and never reach it; Dimakis
///    et al.'s gossip routes 20-100 and path averaging about 1, and both
///    switch early in the run.
///  * CSR already built (a protocol that also gossips with neighbours):
///    the switch builds the mirror only and replaces CSR-row hops; a
///    mirrored hop saves 19-32 ns over a CSR-row hop, so the mirror
///    repays itself after 0.4-0.6 routed hops per arc.  Decentralized
///    replicates route 0.2-32 hops per expected arc at n = 4096 and
///    almost all stay below it.
constexpr std::uint64_t kArcsPerSwitchHopFromGrid = 8;
constexpr std::uint64_t kArcsPerSwitchHopFromCsr = 2;

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

/// greedy_step's contract on the plain CSR row, for routes on a graph that
/// has a CSR but no mirror yet: the strictly-closer neighbour of least
/// squared distance, or `current`.  Ascending ids, strict `<` and a
/// branch-free select, so an exact tie goes to the least id.  A CSR-row
/// hop costs 26-60% of a grid-scan hop (n = 256..32768); decentralized
/// replicates at n = 4096, which build the CSR and route below the
/// switch, ran about 1.6x as long on the grid scan.  An end-to-end A/B
/// with this step removed (grid scan until the one switch rule) left
/// every sweep-affine, sweep-durable and sweep-baselines metric flat
/// (sweep-affine medians over 8 alternating pairs: wall 0.325 -> 0.313 s,
/// cpu 1.09 -> 1.07 s, RSS 18.3 -> 18.3 MiB), but single decentralized
/// replicates got slower: in 4 of 5 runs at n = 4096 (8 seeds, one
/// thread), by 4-13% at n = 16384.  So it stays, for E11's decentralized
/// cells, which those workloads do not weigh.
struct CsrStep {
  const graph::CsrGraph& adjacency;

  NodeId operator()(std::span<const Vec2> positions, NodeId current,
                    Vec2 target, double& here_sq_io) const noexcept {
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
};

/// A grid-scan candidate's rank: the bits of its squared distance (non-
/// negative doubles order like their bit patterns) above its id, so one
/// unsigned compare orders candidates by distance and then by id — the
/// CSR scan's least-id tie rule, in whatever order the grid visits them,
/// with a branch-free select.
__extension__ typedef unsigned __int128 Rank;

inline Rank rank_of(double d_sq, NodeId id) noexcept {
  return (static_cast<Rank>(std::bit_cast<std::uint64_t>(d_sq)) << 32) | id;
}

inline double rank_distance(Rank rank) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(rank >> 32));
}

/// CsrStep's contract on the bucket grid, for routes on a graph with no
/// CSR yet, with its per-route constants hoisted out of the hop loop.
struct GridStep {
  /// Rows (and columns) of a scan window: the grid's cells are at least r
  /// wide, so a window reaches one bucket each way, or two when rounding
  /// makes a cell an ulp narrower than r; a radius wider than the region
  /// makes the grid a single bucket.
  static constexpr int kMaxSpan = 5;

  explicit GridStep(const GeometricGraph& g)
      : grid(g.index()),
        r(g.radius()),
        r_sq(g.radius() * g.radius()),
        lo(grid.region().lo()),
        cell(grid.cell_size()) {
    // The widest window window() can return: 2 * reach + 1 buckets, clamped
    // to the grid's side.
    const double reach = std::ceil(r / cell);
    GG_CHECK(std::min(static_cast<double>(grid.side()), 2.0 * reach + 1.0) <=
                 kMaxSpan,
             "grid scan: bucket cells narrower than the radius");
    // Bucket membership is decided by a rounded division, so a point may
    // sit a few ulps outside its bucket's nominal edges; widening every
    // edge by far more than that keeps the bucket bounds true bounds.
    const Vec2 hi = grid.region().hi();
    slack = 1e-9 * (cell + std::max(std::max(std::abs(lo.x), std::abs(lo.y)),
                                    std::max(std::abs(hi.x), std::abs(hi.y))));
  }

  /// Signed gap from coordinate `u` to bucket k's interval on one axis (0
  /// inside it).  Rounding is monotone, so every coordinate v in the
  /// interval has |fl(v - u)| >= |gap|: squared and summed as distance_sq
  /// sums them, the gaps bound every bucket point's distance_sq to a
  /// point from below, exactly.
  double gap(double u, double origin, int k) const noexcept {
    const double e0 = origin + k * cell - slack;
    const double e1 = origin + (k + 1) * cell + slack;
    return std::clamp(u, e0, e1) - u;
  }

  /// One hop.  It scans the window the CSR build scans around `current`
  /// and keeps the CSR build's predicate (distance_sq(p_j, p_current) <=
  /// r * r; j == current is never strictly closer), so the candidates are
  /// exactly current's neighbours, and ranks them by (squared distance,
  /// id): the CSR scan's hop, exact ties included.  The window's bucket
  /// bounds are hoisted once per hop; buckets are visited target side
  /// first, and one is skipped unscanned when its bound to the target
  /// already exceeds the best so far or its bound to `current` exceeds r
  /// (exact: no point in it could win).  The scanned candidates take both
  /// distance tests branch-free: a range miss turns the target distance
  /// into +inf.
  NodeId operator()(std::span<const Vec2> positions, NodeId current,
                    Vec2 target, double& here_sq_io) const noexcept {
    static constexpr double kOutOfRange[2] = {
        std::numeric_limits<double>::infinity(), 0.0};
    const Vec2 p = positions[current];
    const geometry::BucketGrid::Window w = grid.window(p, r);
    const int cols = w.col_hi - w.col_lo + 1;
    const int rows = w.row_hi - w.row_lo + 1;
    // Target side first: columns (rows) in order of nearness to the target.
    const int col0 = target.x >= p.x ? w.col_hi : w.col_lo;
    const int dcol = target.x >= p.x ? -1 : 1;
    const int row0 = target.y >= p.y ? w.row_hi : w.row_lo;
    const int drow = target.y >= p.y ? -1 : 1;
    double target_gy[kMaxSpan];
    double here_gy[kMaxSpan];
    for (int ri = 0; ri < rows; ++ri) {
      target_gy[ri] = gap(target.y, lo.y, row0 + ri * drow);
      here_gy[ri] = gap(p.y, lo.y, row0 + ri * drow);
    }
    // Id 0 under here_sq: a candidate no closer than `current` never ranks
    // below it, so it never wins.
    const Rank here_rank = rank_of(here_sq_io, 0);
    Rank best = here_rank;
    for (int ci = 0; ci < cols; ++ci) {
      const int col = col0 + ci * dcol;
      const double target_gx = gap(target.x, lo.x, col);
      const double here_gx = gap(p.x, lo.x, col);
      for (int ri = 0; ri < rows; ++ri) {
        if (Vec2(target_gx, target_gy[ri]).norm_sq() > rank_distance(best) ||
            Vec2(here_gx, here_gy[ri]).norm_sq() > r_sq) {
          continue;
        }
        for (const std::uint32_t j : grid.run(row0 + ri * drow, col, col)) {
          const Vec2 q = positions[j];
          const double d_sq = distance_sq(q, target) +
                              kOutOfRange[distance_sq(q, p) <= r_sq];
          const Rank candidate = rank_of(d_sq, j);
          best = candidate < best ? candidate : best;
        }
      }
    }
    if (best == here_rank) return current;
    here_sq_io = rank_distance(best);
    return static_cast<NodeId>(best);
  }

  const geometry::BucketGrid& grid;
  double r;
  double r_sq;
  Vec2 lo;
  double cell;
  double slack = 0.0;
};

/// greedy_step as a callable like CsrStep and GridStep: each walk is
/// compiled once per scan, so the per-hop loop carries no branch on the
/// choice.
struct MirrorStep {
  const GeometricGraph& g;
  std::uint64_t pruned = 0;
  NodeId operator()(std::span<const Vec2> positions, NodeId current,
                    Vec2 target, double& here_sq_io) noexcept {
    return greedy_step(g, positions, current, target, here_sq_io, pruned);
  }
};

/// Whether this route scans the mirror.  Until the graph's unmirrored hops
/// reach mirror_switch_hops() the mirror would not repay its build, so the
/// route scans the CSR row when the graph has one and the bucket grid
/// when it has not; the first route past it builds the mirror (and the
/// CSR it is laid out on).
bool use_mirror(const GeometricGraph& g) {
  if (g.routing_mirror_built()) return true;
  if (g.unmirrored_hops() < mirror_switch_hops(g)) return false;
  g.ensure_routing_mirror();
  return true;
}

/// Runs `walk` with the scan the graph's state picks (see use_mirror) and
/// does the route's bookkeeping.
template <typename Walk>
RouteResult route_with(const GeometricGraph& g, Walk&& walk) {
  RouteResult result;
  if (use_mirror(g)) {
    MirrorStep step{g};
    result = walk(step);
    finish_route(g, result, true, step.pruned);
  } else if (g.adjacency_built()) {
    CsrStep step{g.adjacency()};
    result = walk(step);
    finish_route(g, result, false, 0);
  } else {
    GridStep step(g);
    result = walk(step);
    finish_route(g, result, false, 0);
  }
  return result;
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

template <typename Step>
RouteResult walk_to_node(const GeometricGraph& g, Step& step, NodeId source,
                         NodeId destination, std::uint32_t budget,
                         std::vector<NodeId>* trace) {
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
    const NodeId next = step(positions, current, target, cur_sq);
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

template <typename Step>
RouteResult walk_to_position(const GeometricGraph& g, Step& step,
                             NodeId source, Vec2 target, std::uint32_t budget,
                             std::vector<NodeId>* trace) {
  const auto positions = g.positions();
  RouteResult result;
  NodeId current = source;
  double cur_sq = distance_sq(positions[current], target);
  while (true) {
    const NodeId next = step(positions, current, target, cur_sq);
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
  // The expected arc count from n and the expected degree, so the switch
  // never reads (or builds) the CSR; only whether one exists picks the
  // divisor.  The degree is capped at n - 1 for radii that cover the
  // whole region.
  const auto n = static_cast<double>(g.node_count());
  const double degree =
      std::min(n - 1.0, graph::expected_interior_degree(g.node_count(),
                                                        g.radius()) /
                            g.region().area());
  const std::uint64_t arcs_per_hop = g.adjacency_built()
                                         ? kArcsPerSwitchHopFromCsr
                                         : kArcsPerSwitchHopFromGrid;
  return static_cast<std::uint64_t>(
      std::ceil(n * degree / static_cast<double>(arcs_per_hop)));
}

RouteResult route_to_node(const GeometricGraph& g, NodeId source,
                          NodeId destination, const RouteOptions& options) {
  GG_CHECK_ARG(source < g.node_count() && destination < g.node_count(),
               "route endpoints out of range");
  const std::uint32_t budget =
      options.max_hops != 0 ? options.max_hops : default_hop_budget(g);
  prepare_trace(options.trace, budget, source);
  return route_with(g, [&](auto& step) {
    return walk_to_node(g, step, source, destination, budget, options.trace);
  });
}

RouteResult route_to_position(const GeometricGraph& g, NodeId source,
                              Vec2 target, const RouteOptions& options) {
  GG_CHECK_ARG(source < g.node_count(), "route source out of range");
  const std::uint32_t budget =
      options.max_hops != 0 ? options.max_hops : default_hop_budget(g);
  prepare_trace(options.trace, budget, source);
  return route_with(g, [&](auto& step) {
    return walk_to_position(g, step, source, target, budget, options.trace);
  });
}

}  // namespace geogossip::routing
