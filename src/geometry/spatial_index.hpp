// Bucket-grid spatial index over a fixed point set.
//
// This is the workhorse behind geometric-random-graph construction (range
// queries with radius r using a grid of cell size r) and nearest-node lookup
// (expanding ring search), replacing any O(n^2) scans.
//
// for_each_within is a template over the visitor so the per-candidate call
// inlines (graph construction visits every near pair; an indirect call per
// pair dominated the build).
#ifndef GEOGOSSIP_GEOMETRY_SPATIAL_INDEX_HPP
#define GEOGOSSIP_GEOMETRY_SPATIAL_INDEX_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"
#include "support/check.hpp"

namespace geogossip::geometry {

class BucketGrid {
 public:
  /// Indexes `points` over `region` with square buckets of size >=
  /// cell_size.  Requires cell_size > 0 and all points inside the closed
  /// region.  The index references the vector's element buffer, which
  /// must outlive it unchanged; moving the vector keeps the buffer, so an
  /// owner that holds both (GeometricGraph) stays movable.
  BucketGrid(const std::vector<Vec2>& points, const Rect& region,
             double cell_size);

  std::size_t size() const noexcept { return points_.size(); }
  std::span<const Vec2> points() const noexcept { return points_; }

  /// Invokes fn(run) once per bucket row of the window a range query of
  /// `radius` around p scans, in row-major order.  Each row's buckets are
  /// adjacent in the bucket CSR, so `run` is one contiguous slice of point
  /// indices (no copy); together the runs hold every candidate the query
  /// tests, in the order it tests them.  Hot loops that keep or count
  /// candidates scan the runs themselves, branch-free.
  template <typename Fn>
  void for_each_window_run(Vec2 p, double radius, Fn&& fn) const {
    const Window w = window(p, radius);
    for (int row = w.row_lo; row <= w.row_hi; ++row) {
      fn(run(row, w.col_lo, w.col_hi));
    }
  }

  /// The buckets a range query of `radius` around p scans: rows row_lo..
  /// row_hi by columns col_lo..col_hi, inclusive.  Every range query and
  /// the CSR build scan exactly this window, so a caller that scans it
  /// bucket by bucket (greedy routing's cold path) sees the same
  /// candidates.
  struct Window {
    int row_lo, row_hi, col_lo, col_hi;
  };
  Window window(Vec2 p, double radius) const {
    GG_CHECK_ARG(radius >= 0.0, "range query: radius must be >= 0");
    const int reach = static_cast<int>(std::ceil(radius / cell_size_));
    const int pcol = col_of(p);
    const int prow = row_of(p);
    return {std::max(0, prow - reach), std::min(side_ - 1, prow + reach),
            std::max(0, pcol - reach), std::min(side_ - 1, pcol + reach)};
  }

  /// Point indices of buckets (row, col_lo) .. (row, col_hi): adjacent in
  /// the bucket CSR, so one contiguous slice, no copy.  Unchecked: the
  /// buckets must come from window().
  std::span<const std::uint32_t> run(int row, int col_lo,
                                     int col_hi) const noexcept {
    const auto lo = static_cast<std::size_t>(row * side_ + col_lo);
    const auto hi = static_cast<std::size_t>(row * side_ + col_hi);
    return {entries_.data() + bucket_start_[lo],
            entries_.data() + bucket_start_[hi + 1]};
  }

  /// Invokes fn(index) for every point with distance(p, point) <= radius.
  /// The query point itself is reported too if it is in the set.  The
  /// visitor call inlines.
  template <typename Visitor>
  void for_each_within(Vec2 p, double radius, Visitor&& fn) const {
    const double r_sq = radius * radius;
    const Vec2* const points = points_.data();
    for_each_window_run(p, radius, [&](std::span<const std::uint32_t> run) {
      for (const std::uint32_t idx : run) {
        if (distance_sq(points[idx], p) <= r_sq) fn(idx);
      }
    });
  }

  /// Number of points with distance(p, point) <= radius (the query point
  /// itself included when indexed) — pass 1 of the two-pass CSR build is
  /// exactly one of these per node.  Branch-free: about a third of the
  /// candidates pass, so a kept/dropped branch mispredicts constantly.
  std::size_t count_within(Vec2 p, double radius) const {
    const double r_sq = radius * radius;
    const Vec2* const points = points_.data();
    std::size_t count = 0;
    for_each_window_run(p, radius, [&](std::span<const std::uint32_t> run) {
      for (const std::uint32_t idx : run) {
        count += static_cast<std::size_t>(distance_sq(points[idx], p) <= r_sq);
      }
    });
    return count;
  }

  /// Indices of all points within `radius` of p (inclusive).
  std::vector<std::uint32_t> within(Vec2 p, double radius) const;

  /// Index of the point nearest to p (ties: lowest index), or nullopt when
  /// the point set is empty.  Expanding ring search: O(1) expected for
  /// roughly uniform points.
  std::optional<std::uint32_t> nearest(Vec2 p) const;

  /// All point indices inside `rect`.  Membership is half-open (lo <= p <
  /// hi), EXCEPT where a rect edge reaches the indexed region's own closed
  /// hi boundary: there the edge is treated as closed, matching the
  /// constructor's contains_closed() acceptance — a query covering the
  /// whole region returns every indexed point, boundary sitters included.
  std::vector<std::uint32_t> points_in_rect(const Rect& rect) const;

  // ----- bucket (CSR) introspection: stratified-sampling support -----

  /// Buckets per side; bucket (row, col) covers
  /// [lo + col*cell, lo + (col+1)*cell) x [lo + row*cell, ...).
  int side() const noexcept { return side_; }
  double cell_size() const noexcept { return cell_size_; }
  const Rect& region() const noexcept { return region_; }

  /// Point indices stored in bucket (row, col) — a CSR slice, no copy.
  std::span<const std::uint32_t> bucket_entries(int row, int col) const {
    GG_CHECK_ARG(row >= 0 && row < side_ && col >= 0 && col < side_,
                 "bucket_entries: bucket out of range");
    const auto b = static_cast<std::size_t>(row * side_ + col);
    return {entries_.data() + bucket_start_[b],
            entries_.data() + bucket_start_[b + 1]};
  }

  /// The sub-rectangle of the region covered by bucket (row, col),
  /// clipped to the region so edge buckets absorb the rounding slack.
  /// Requires the bucket to intersect the region: the grid is sized to
  /// the larger extent, so on a non-square region the rows/columns
  /// beyond the smaller side hold no points and have no rectangle
  /// (ArgumentError).
  Rect bucket_rect(int row, int col) const;

 private:
  int bucket_of(Vec2 p) const noexcept;
  int col_of(Vec2 p) const noexcept {
    return std::clamp(static_cast<int>((p.x - region_.lo().x) / cell_size_),
                      0, side_ - 1);
  }
  int row_of(Vec2 p) const noexcept {
    return std::clamp(static_cast<int>((p.y - region_.lo().y) / cell_size_),
                      0, side_ - 1);
  }

  std::span<const Vec2> points_;
  Rect region_;
  double cell_size_;
  int side_;
  // CSR layout: bucket b owns entries_[bucket_start_[b] .. bucket_start_[b+1]).
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> entries_;
};

}  // namespace geogossip::geometry

#endif  // GEOGOSSIP_GEOMETRY_SPATIAL_INDEX_HPP
