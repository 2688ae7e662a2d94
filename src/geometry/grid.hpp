// Flat k x k partitions of a square region, plus the paper's subsquare-count
// rule.
//
// §4.1 of the paper partitions a square holding an expected m sensors into
// n' subsquares where n' is "the nearest integer to sqrt(m) that is the
// square of an even number" — i.e. n' = (2k)^2 with k chosen so that (2k)^2
// is closest to sqrt(m).  nearest_even_square() implements exactly that rule.
#ifndef GEOGOSSIP_GEOMETRY_GRID_HPP
#define GEOGOSSIP_GEOMETRY_GRID_HPP

#include <cstdint>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"

namespace geogossip::geometry {

/// The nearest integer to `target` that is the square of an even number
/// ((2k)^2, k >= 1; minimum value 4).  Ties resolve to the smaller square.
/// Requires target > 0.
std::int64_t nearest_even_square(double target);

/// The paper's rule: number of subsquares for a square with expected
/// occupancy m is nearest_even_square(sqrt(m)).
std::int64_t paper_subsquare_count(double expected_occupancy);

/// A side x side uniform grid over a region with point->cell mapping and
/// per-cell membership lists.
class SquareGrid {
 public:
  SquareGrid(const Rect& region, int side);

  int side() const noexcept { return side_; }
  int cell_count() const noexcept { return side_ * side_; }
  const Rect& region() const noexcept { return region_; }

  /// Flat cell index of p (row-major), or -1 if outside the closed region.
  int cell_of(Vec2 p) const;

  Rect cell_rect(int cell) const;

  /// Assigns each point to its cell; returns per-cell member lists.
  std::vector<std::vector<std::uint32_t>> assign(
      const std::vector<Vec2>& points) const;

  /// Per-cell occupancy counts only.
  std::vector<std::uint32_t> occupancy(const std::vector<Vec2>& points) const;

 private:
  Rect region_;
  int side_;
};

}  // namespace geogossip::geometry

#endif  // GEOGOSSIP_GEOMETRY_GRID_HPP
