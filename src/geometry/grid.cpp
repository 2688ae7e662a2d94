#include "geometry/grid.hpp"

#include <cmath>

#include "support/check.hpp"

namespace geogossip::geometry {

std::int64_t nearest_even_square(double target) {
  GG_CHECK_ARG(target > 0.0, "nearest_even_square: target must be positive");
  // Candidates are (2k)^2; the real-valued optimum is k* = sqrt(target)/2.
  const double k_star = std::sqrt(target) / 2.0;
  const auto k_lo = static_cast<std::int64_t>(std::floor(k_star));
  std::int64_t best = -1;
  double best_gap = 0.0;
  for (std::int64_t k = std::max<std::int64_t>(1, k_lo - 1);
       k <= k_lo + 2; ++k) {
    const double value = 4.0 * static_cast<double>(k) * static_cast<double>(k);
    const double gap = std::abs(value - target);
    if (best < 0 || gap < best_gap) {
      best = 2 * k;
      best_gap = gap;
    }
  }
  return best * best;
}

std::int64_t paper_subsquare_count(double expected_occupancy) {
  GG_CHECK_ARG(expected_occupancy > 0.0,
               "paper_subsquare_count: occupancy must be positive");
  return nearest_even_square(std::sqrt(expected_occupancy));
}

SquareGrid::SquareGrid(const Rect& region, int side)
    : region_(region), side_(side) {
  GG_CHECK_ARG(side >= 1, "SquareGrid requires side >= 1");
}

int SquareGrid::cell_of(Vec2 p) const {
  return region_.subsquare_index(p, side_);
}

Rect SquareGrid::cell_rect(int cell) const {
  return region_.subsquare(cell, side_);
}

std::vector<std::vector<std::uint32_t>> SquareGrid::assign(
    const std::vector<Vec2>& points) const {
  std::vector<std::vector<std::uint32_t>> members(
      static_cast<std::size_t>(cell_count()));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const int cell = cell_of(points[i]);
    GG_CHECK(cell >= 0, "assign: point outside the grid region");
    members[static_cast<std::size_t>(cell)].push_back(
        static_cast<std::uint32_t>(i));
  }
  return members;
}

std::vector<std::uint32_t> SquareGrid::occupancy(
    const std::vector<Vec2>& points) const {
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(cell_count()), 0);
  for (const Vec2& p : points) {
    const int cell = cell_of(p);
    GG_CHECK(cell >= 0, "occupancy: point outside the grid region");
    ++counts[static_cast<std::size_t>(cell)];
  }
  return counts;
}

}  // namespace geogossip::geometry
