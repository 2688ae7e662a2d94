#include "graph/geometric_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "geometry/sampling.hpp"
#include "graph/radius.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip::graph {

namespace {

// Registered when the program loads, so every trace carries it, zeros
// included: a sweep whose replicates never read a neighbour list reads 0.
const obs::CounterId c_adjacency_builds =
    obs::counter("graph.adjacency_builds");

}  // namespace

GeometricGraph::GeometricGraph(std::vector<geometry::Vec2> points, double r,
                               const geometry::Rect& region,
                               const BuildOptions& options)
    : points_(std::move(points)),
      r_(r),
      region_(region),
      pool_(options.pool),
      lazy_(std::make_unique<Lazy>()) {
  GG_CHECK_ARG(!points_.empty(), "GeometricGraph: no points");
  GG_CHECK_ARG(r > 0.0, "GeometricGraph: radius must be positive");
  CsrGraph::check_node_count(points_.size());
  {
    obs::Span span("graph_build", "n",
                   static_cast<std::int64_t>(points_.size()));
    index_ = std::make_unique<geometry::BucketGrid>(points_, region_, r_);
  }
  if (options.eager_routing_mirror) ensure_routing_mirror();
}

void GeometricGraph::build_adjacency() const {
  std::call_once(lazy_->csr_once, [this] {
    obs::Span span("graph_build", "n",
                   static_cast<std::int64_t>(points_.size()));
    obs::add(c_adjacency_builds);
    // Two-pass CSR build straight from the bucket grid.  No edge-list
    // intermediate and no global sort: each node's row is a pure function
    // of the (fixed) point set, so the per-node passes parallelize freely
    // and the output is bit-identical at any thread count.
    const std::size_t n = points_.size();
    const geometry::BucketGrid& grid = *index_;

    // Pass 1: per-node degree counts into the (future) offset array.
    std::vector<std::uint64_t> offsets(n + 1, 0);
    parallel_ranges(pool_, n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        // count_within reports node i itself too; every other in-range
        // index is a neighbour (coincident points included, as before).
        offsets[i + 1] = grid.count_within(points_[i], r_) - 1;
      }
    });
    // Exclusive prefix-sum: offsets[v] becomes the start of node v's row.
    for (std::size_t v = 1; v <= n; ++v) offsets[v] += offsets[v - 1];

    // Pass 2: fill each row.  Every candidate of the scan window is
    // written to a per-range scratch row and the cursor advances only past
    // the kept ones — branch-free, since about a third of the candidates
    // pass and a kept/dropped branch mispredicts constantly.  The row then
    // moves into its CSR slice (scratch, because the one slot written past
    // a row's end may belong to another range's row).  The grid visits
    // candidates in bucket row-major order, which for spatially renumbered
    // samples is already ascending id order — the per-row sort then
    // degenerates to the is_sorted check; arbitrary point sets pay an
    // O(deg log deg) sort.  Each finished row then gets
    // CsrGraph::from_parts' row checks.
    std::vector<NodeId> targets(offsets.back());
    const double r_sq = r_ * r_;
    parallel_ranges(pool_, n, [&](std::size_t begin, std::size_t end) {
      std::vector<NodeId> row;  // per-range scratch, grown to the widest window
      for (std::size_t i = begin; i < end; ++i) {
        const geometry::Vec2 p = points_[i];
        std::size_t kept = 0;
        grid.for_each_window_run(
            p, r_, [&](std::span<const std::uint32_t> run) {
              if (row.size() < kept + run.size()) row.resize(kept + run.size());
              NodeId* const out = row.data();
              for (const std::uint32_t j : run) {
                out[kept] = j;
                kept += static_cast<std::size_t>(
                            geometry::distance_sq(points_[j], p) <= r_sq) &
                        static_cast<std::size_t>(j != i);
              }
            });
        GG_CHECK_ARG(offsets[i] <= offsets[i + 1],
                     "from_parts: offsets must be non-decreasing");
        GG_CHECK(kept == offsets[i + 1] - offsets[i],
                 "GeometricGraph: pass 2 disagrees with pass 1's degree");
        const auto row_end = row.begin() + static_cast<std::ptrdiff_t>(kept);
        if (!std::is_sorted(row.begin(), row_end)) {
          std::sort(row.begin(), row_end);
        }
        CsrGraph::check_row(static_cast<NodeId>(i), {row.data(), kept}, n);
        std::copy(row.begin(), row_end,
                  targets.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
      }
    });
    // Every row and offset was checked above, on the pool, while the row
    // was in cache; adopting skips from_parts' serial re-scan of the CSR.
    csr_ = CsrGraph::adopt_checked(std::move(offsets), std::move(targets));
    lazy_->csr_built.store(true, std::memory_order_release);
  });
}

void GeometricGraph::ensure_routing_mirror() const {
  ensure_adjacency();
  std::call_once(lazy_->mirror_once, [this] { build_routing_mirror(); });
}

void GeometricGraph::build_routing_mirror() const {
  obs::Span span("routing_mirror", "n",
                 static_cast<std::int64_t>(points_.size()));
  // Routing-ordered mirror of the CSR: neighbours grouped into annuli by
  // distance from the node, farthest annulus first, each entry carrying
  // its annulus's (conservative, rounded-up) outer radius.  The greedy
  // scan's triangle-inequality pruning only needs a non-increasing upper
  // bound per entry, so annulus granularity keeps it exact while the
  // grouping is an O(degree) counting sort instead of a comparison sort.
  // Row v of the mirror occupies the same slice as row v of the CSR, so
  // every node is independent and the fill parallelizes over the pool.
  constexpr int kAnnuli = kRoutingAnnuli;
  double edge_sq[kAnnuli + 1];  // edge_sq[a] = (r * (kAnnuli - a) / K)^2
  float bound_up[kAnnuli];
  for (int a = 0; a <= kAnnuli; ++a) {
    const double edge = r_ * static_cast<double>(kAnnuli - a) / kAnnuli;
    edge_sq[a] = edge * edge;
    if (a < kAnnuli) {
      float up = static_cast<float>(edge);
      if (static_cast<double>(up) < edge) {
        up = std::nextafter(up, std::numeric_limits<float>::infinity());
      }
      bound_up[a] = up;
    }
  }
  // A neighbour at distance d lies in annulus K - 1 - floor(d * K / r) up
  // to rounding at the edges; min() clamps d = r (and any d > r) into
  // [0, K - 1].
  const double annuli_per_unit = kAnnuli / r_;

  const auto offsets = csr_.offsets();
  // offsets.back() == total arc count; exact even for a (contract-
  // violating) asymmetric adjacency, where 2 * edge_count() would round
  // an odd arc count down and the fill loop would overrun by one.
  lazy_->ids.resize(offsets.back());
  lazy_->radii.resize(offsets.back());
  NodeId* const ids = lazy_->ids.data();
  float* const radii = lazy_->radii.data();
  parallel_ranges(pool_, points_.size(), [&](std::size_t begin,
                                             std::size_t end) {
    std::vector<std::uint8_t> annulus_of;  // per-range scratch, reused
    for (std::size_t v = begin; v < end; ++v) {
      const auto neighbors = csr_.neighbors_unchecked(static_cast<NodeId>(v));
      const std::uint64_t base = offsets[v];
      annulus_of.resize(neighbors.size());
      std::uint32_t cursor[kAnnuli] = {};
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const double d_sq =
            geometry::distance_sq(points_[v], points_[neighbors[k]]);
        // The annulus is the largest a with d_sq <= edge_sq[a] (0 when
        // none): guess it from the distance, then settle it with those
        // exact comparisons.  The guess is right or one off, so each
        // correction loop almost always exits at once and predictably.
        int a = kAnnuli - 1 -
                static_cast<int>(std::min(static_cast<double>(kAnnuli - 1),
                                          std::sqrt(d_sq) * annuli_per_unit));
        while (a < kAnnuli - 1 && d_sq <= edge_sq[a + 1]) ++a;
        while (a > 0 && !(d_sq <= edge_sq[a])) --a;
        annulus_of[k] = static_cast<std::uint8_t>(a);
        ++cursor[a];
      }
      // Prefix-sum the per-annulus counts into slice cursors, then place.
      std::uint32_t start = 0;
      for (int a = 0; a < kAnnuli; ++a) {
        const std::uint32_t count = cursor[a];
        cursor[a] = start;
        start += count;
      }
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const int a = annulus_of[k];
        const std::size_t slot = base + cursor[a]++;
        ids[slot] = neighbors[k];
        radii[slot] = bound_up[a];
      }
    }
  });
  lazy_->mirror_built.store(true, std::memory_order_release);
}

GeometricGraph GeometricGraph::sample(std::size_t n, double radius_multiplier,
                                      Rng& rng, const BuildOptions& options) {
  GG_CHECK_ARG(n >= 2, "GeometricGraph::sample: n >= 2");
  CsrGraph::check_node_count(n);
  auto points = geometry::sample_unit_square(n, rng);
  const double r = paper_radius(n, radius_multiplier);

  // Spatial renumbering: sort the sample into bucket row-major order (the
  // same order the BucketGrid CSR uses) before assigning node ids.  The
  // sample is i.i.d. — the labelling is an artifact — but the labelling
  // decides memory layout: with spatially sorted ids, a node's neighbours
  // occupy a handful of contiguous id runs, so the greedy-routing inner
  // loop reads positions_ almost sequentially instead of gathering
  // uniformly over the whole array.  At paper radii a 3-row working set
  // fits L1 where the unsorted layout thrashes it.
  const int side =
      std::max(1, static_cast<int>(std::floor(1.0 / r)));
  const double cell = 1.0 / side;
  // One precomputed (bucket, sample index) key per point, sorted as a
  // packed u64 — computing keys inside a comparator costs two float->int
  // conversions per comparison and dominates the sort.
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto col = static_cast<std::uint64_t>(
        std::min(side - 1, static_cast<int>(points[i].x / cell)));
    const auto row = static_cast<std::uint64_t>(
        std::min(side - 1, static_cast<int>(points[i].y / cell)));
    keys[i] = ((row * static_cast<std::uint64_t>(side) + col) << 32) | i;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<geometry::Vec2> sorted(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted[i] = points[keys[i] & 0xffffffffull];
  }
  return GeometricGraph(std::move(sorted), r, geometry::Rect::unit_square(),
                        options);
}

geometry::Vec2 GeometricGraph::position(NodeId node) const {
  GG_CHECK_ARG(node < points_.size(), "node out of range");
  return points_[node];
}

NodeId GeometricGraph::nearest_node(geometry::Vec2 position) const {
  const auto found = index_->nearest(position);
  GG_CHECK(found.has_value(), "nearest_node on empty graph");
  return *found;
}

std::string GeometricGraph::summary() const {
  std::ostringstream os;
  const CsrGraph& csr = adjacency();
  os << "G(n=" << points_.size() << ", r=" << format_fixed(r_, 5)
     << "): " << csr.edge_count() << " edges, degree min/mean/max = "
     << csr.min_degree() << '/' << format_fixed(csr.mean_degree(), 1) << '/'
     << csr.max_degree();
  return os.str();
}

}  // namespace geogossip::graph
