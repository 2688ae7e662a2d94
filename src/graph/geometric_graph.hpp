// Geometric random graph G(n, r): the paper's network model.
//
// GeometricGraph bundles the sampled positions, the connectivity radius,
// the bucket-grid index (cell size r) reused by routing and by the
// protocols for nearest-node queries, and the CSR adjacency.
//
// Construction builds only the points and the bucket grid.  The CSR is
// built on the first adjacency() / neighbors() / degree() call, once,
// under std::call_once: a node of the paper's
// model knows positions only, and the affine protocols exchange values
// between square representatives over greedy routes, which scan the
// bucket grid (routing/greedy.hpp) — so their replicates never allocate
// the CSR's 4 bytes/arc + 8 bytes/node.  Protocols that gossip with
// neighbours (Boyd et al., the §4.2 Near ticks, the §8 variant, flooding)
// build it on their first read.
//
// The CSR build is two passes straight from the bucket grid: pass 1
// counts each node's degree, an exclusive prefix-sum lays out the offsets,
// pass 2 fills each node's (sorted) neighbour slice and runs CsrGraph's
// row checks on it while it is in cache, so the finished CSR is adopted
// without CsrGraph::from_parts' serial re-scan.  Both passes walk the
// scan window as contiguous bucket runs and keep or count candidates
// without a branch (about a third pass the distance test, so a branch
// would mispredict constantly).  No edge-list intermediate, no global sort
// — and both passes split the node range across a work-stealing ThreadPool
// when BuildOptions supplies one, with output bit-identical to the serial
// path at any thread count (each node's slice is a pure function of the
// point set).
//
// The routing-ordered adjacency mirror that greedy routing scans once a
// graph's routing pays for it is built lazily too.  Until then the greedy
// routers scan the bucket-grid window and add each finished route's hops
// to a per-graph tally (add_unmirrored_hops); once that tally reaches the
// break-even threshold (routing::mirror_switch_hops) the next route calls
// ensure_routing_mirror(), which builds the CSR if needed and then the
// mirror — in parallel when a pool is attached.  Workloads that never
// route or route little (spectral probes, connectivity sweeps, the
// paper's affine protocols) never pay its build time or its 8 bytes/arc;
// routing-heavy ones (Dimakis et al.'s geographic gossip) switch within
// their first few percent of hops.  Each neighbour's annulus is guessed
// from its distance and settled by exact comparisons with the annulus
// edges, then a counting sort groups the row.  Call ensure_routing_mirror()
// after construction to front-load CSR and mirror instead.
#ifndef GEOGOSSIP_GRAPH_GEOMETRIC_GRAPH_HPP
#define GEOGOSSIP_GRAPH_GEOMETRIC_GRAPH_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/spatial_index.hpp"
#include "geometry/vec2.hpp"
#include "graph/csr.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace geogossip::graph {

/// Construction knobs.  The defaults build serially, the CSR on the first
/// neighbour read and the routing mirror once the graph's routing pays
/// for one.
struct BuildOptions {
  /// Pool the two-pass CSR build and the routing-mirror build fan node
  /// ranges across; nullptr builds serially.  The pool is only borrowed —
  /// both are built lazily after construction, so it must outlive every
  /// call that may build them.
  const ThreadPool* pool = nullptr;
};

class GeometricGraph {
 public:
  /// Nested alias so generic callers can spell the options type through
  /// the graph type (`typename Graph::BuildOptions`) — which also lets
  /// version-spanning harnesses (bench/kernels) feature-probe this API
  /// with a dependent name.
  using BuildOptions = graph::BuildOptions;

  /// Connects every pair of `points` within distance r (closed ball).
  /// Points must lie in the closed `region`; n must stay below the 32-bit
  /// NodeId ceiling (2^32).
  GeometricGraph(std::vector<geometry::Vec2> points, double r,
                 const geometry::Rect& region = geometry::Rect::unit_square(),
                 const BuildOptions& options = {});

  /// Samples n i.i.d. uniform points on the unit square and connects at the
  /// paper's radius multiplier * sqrt(log n / n).
  static GeometricGraph sample(std::size_t n, double radius_multiplier,
                               Rng& rng, const BuildOptions& options = {});

  std::size_t node_count() const noexcept { return points_.size(); }
  double radius() const noexcept { return r_; }
  const geometry::Rect& region() const noexcept { return region_; }
  const std::vector<geometry::Vec2>& points() const noexcept {
    return points_;
  }
  /// Checked single-position lookup (wide contract).
  geometry::Vec2 position(NodeId node) const;
  /// Flat unchecked position span for hot loops that index with ids
  /// produced by this graph's own adjacency (greedy routing advances one
  /// position read per candidate neighbour; the per-read bounds check and
  /// out-of-line call of position() dominated the hop cost).
  std::span<const geometry::Vec2> positions() const noexcept {
    return points_;
  }

  /// The CSR adjacency, built on the first call of this, neighbors() or
  /// degree() — once, under std::call_once, so concurrent first readers
  /// share one build and all see its bytes; after that the cost is one
  /// acquire load.  Uses the construction-time pool when one was attached.
  const CsrGraph& adjacency() const {
    ensure_adjacency();
    return csr_;
  }
  std::span<const NodeId> neighbors(NodeId node) const {
    return adjacency().neighbors(node);
  }
  std::size_t degree(NodeId node) const { return adjacency().degree(node); }

  /// Whether the CSR has been materialized.
  bool adjacency_built() const noexcept {
    return lazy_->csr_built.load(std::memory_order_acquire);
  }

  /// Annuli per routing-ordered adjacency list (see
  /// routing_ids_unchecked()).
  static constexpr int kRoutingAnnuli = 32;

  /// Builds the CSR (if needed), then the routing-ordered mirror if it
  /// does not exist yet.  Safe to call concurrently (std::call_once); the
  /// greedy routers call it at route entry once unmirrored_hops() reaches
  /// their switch threshold, so plain library users never need to.  Uses
  /// the construction-time pool when one was attached.
  void ensure_routing_mirror() const;
  /// Whether the mirror has been materialized.
  bool routing_mirror_built() const noexcept {
    return lazy_->mirror_built.load(std::memory_order_acquire);
  }

  /// Hops routed on this graph while it had no mirror: the tally the
  /// greedy routers' switch reads.  Relaxed and added to once per
  /// finished route, never per hop.
  std::uint64_t unmirrored_hops() const noexcept {
    return lazy_->unmirrored_hops.load(std::memory_order_relaxed);
  }
  void add_unmirrored_hops(std::uint64_t hops) const noexcept {
    lazy_->unmirrored_hops.fetch_add(hops, std::memory_order_relaxed);
  }

  /// Routing-ordered adjacency (ids unchecked — they must come from this
  /// graph): the same neighbour set as neighbors(node), grouped into
  /// kRoutingAnnuli distance annuli farthest-first, paired with each
  /// annulus's outer radius rounded UP to float.  greedy_step scans this
  /// order and stops at the first entry whose triangle-inequality bound
  ///     dist(u, target) >= dist(node, target) - |u - node|
  /// already rules out every remaining (nearer-to-node) neighbour — for
  /// far targets that prunes most of the list, exactly.  The row layout
  /// mirrors the CSR exactly (same per-node counts), so the CSR offsets
  /// slice both arrays (a built mirror implies a built CSR).
  /// Unchecked, for per-hop loops that have already ensured the mirror
  /// once at route entry (greedy_step): no call_once check, and noexcept.
  /// Calling these before ensure_routing_mirror() is UB, like
  /// neighbors_unchecked with a foreign id.
  std::span<const NodeId> routing_ids_unchecked(NodeId node) const noexcept {
    const auto offsets = csr_.offsets();
    return {lazy_->ids.data() + offsets[node],
            lazy_->ids.data() + offsets[node + 1]};
  }
  std::span<const float> routing_radii_unchecked(
      NodeId node) const noexcept {
    const auto offsets = csr_.offsets();
    return {lazy_->radii.data() + offsets[node],
            lazy_->radii.data() + offsets[node + 1]};
  }

  /// Bucket-grid index over the node positions (cell size == r).
  const geometry::BucketGrid& index() const noexcept { return *index_; }

  /// Node nearest an arbitrary position (used by geographic routing).
  NodeId nearest_node(geometry::Vec2 position) const;

  std::string summary() const;

 private:
  // Build-once state of the lazy CSR and the lazy routing mirror, and the
  // routed-hop tally that decides when to build the mirror; boxed so the
  // graph stays movable (the once_flags/atomics inside are neither
  // copyable nor movable).  The CSR itself stays a direct member, so the
  // mirrored hop's offsets read is one load.
  struct Lazy {
    std::once_flag csr_once;
    std::atomic<bool> csr_built{false};
    std::once_flag mirror_once;
    std::atomic<bool> mirror_built{false};
    std::atomic<std::uint64_t> unmirrored_hops{0};
    std::vector<NodeId> ids;
    std::vector<float> radii;
  };

  /// Builds the CSR if it does not exist yet: once, under std::call_once,
  /// so concurrent first readers share one build and all see its bytes.
  /// The steady-state cost is one acquire load.  Uses the construction-
  /// time pool when one was attached.
  void ensure_adjacency() const {
    if (!lazy_->csr_built.load(std::memory_order_acquire)) build_adjacency();
  }
  void build_adjacency() const;
  void build_routing_mirror() const;

  std::vector<geometry::Vec2> points_;
  double r_;
  geometry::Rect region_;
  std::unique_ptr<geometry::BucketGrid> index_;
  /// Written once, inside lazy_->csr_once; read only after csr_built.
  mutable CsrGraph csr_;
  /// Borrowed build pool (see BuildOptions::pool); nullptr = serial.
  const ThreadPool* pool_ = nullptr;
  std::unique_ptr<Lazy> lazy_;
};

}  // namespace geogossip::graph

#endif  // GEOGOSSIP_GRAPH_GEOMETRIC_GRAPH_HPP
