// The paper's subsquare-count rule.  A square's k x k partition itself is
// Rect::subsquare_index / Rect::subsquare.
//
// §4.1 of the paper partitions a square holding an expected m sensors into
// n' subsquares where n' is "the nearest integer to sqrt(m) that is the
// square of an even number" — i.e. n' = (2k)^2 with k chosen so that (2k)^2
// is closest to sqrt(m).  nearest_even_square() implements exactly that rule.
#ifndef GEOGOSSIP_GEOMETRY_GRID_HPP
#define GEOGOSSIP_GEOMETRY_GRID_HPP

#include <cstdint>

namespace geogossip::geometry {

/// The nearest integer to `target` that is the square of an even number
/// ((2k)^2, k >= 1; minimum value 4).  Ties resolve to the smaller square.
/// Requires target > 0.
std::int64_t nearest_even_square(double target);

/// The paper's rule: number of subsquares for a square with expected
/// occupancy m is nearest_even_square(sqrt(m)).
std::int64_t paper_subsquare_count(double expected_occupancy);

}  // namespace geogossip::geometry

#endif  // GEOGOSSIP_GEOMETRY_GRID_HPP
