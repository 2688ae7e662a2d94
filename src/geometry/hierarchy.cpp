#include "geometry/hierarchy.hpp"

#include <cmath>
#include <deque>
#include <limits>
#include <sstream>

#include "geometry/grid.hpp"
#include "support/check.hpp"

namespace geogossip::geometry {

std::int64_t split_fan_out(double expected, int depth, double threshold,
                           int max_depth) {
  if (expected <= threshold || depth >= max_depth) return 0;
  return paper_subsquare_count(expected);
}

PartitionHierarchy::PartitionHierarchy(const std::vector<Vec2>& points,
                                       const Rect& region,
                                       const HierarchyConfig& config)
    : points_(&points) {
  GG_CHECK_ARG(!points.empty(), "PartitionHierarchy: no points");
  build(region, config);
  finalize_levels();
}

PartitionHierarchy::PartitionHierarchy(const std::vector<Vec2>& points,
                                       const HierarchyConfig& config)
    : PartitionHierarchy(points, Rect::unit_square(), config) {}

namespace {

/// Member of `members` nearest to `target`; -1 when empty.
std::int32_t nearest_member(const std::vector<Vec2>& points,
                            const std::vector<std::uint32_t>& members,
                            Vec2 target) {
  std::int32_t best = -1;
  double best_sq = std::numeric_limits<double>::infinity();
  for (const std::uint32_t m : members) {
    const double d_sq = distance_sq(points[m], target);
    if (d_sq < best_sq) {
      best_sq = d_sq;
      best = static_cast<std::int32_t>(m);
    }
  }
  return best;
}

}  // namespace

void PartitionHierarchy::build(const Rect& region,
                               const HierarchyConfig& config) {
  const std::size_t n = points_->size();

  // Root: whole region, all sensors.
  SquareInfo root_square;
  root_square.rect = region;
  root_square.depth = 0;
  root_square.expected_occupancy = static_cast<double>(n);
  root_square.members.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    root_square.members[i] = static_cast<std::uint32_t>(i);
  }
  squares_.push_back(std::move(root_square));

  // Breadth-first subdivision per §4.1: split while E# > leaf_occupancy.
  std::deque<int> queue{0};
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();

    const double expected = squares_[static_cast<std::size_t>(id)].expected_occupancy;
    const int depth = squares_[static_cast<std::size_t>(id)].depth;
    const std::int64_t subsquares =
        split_fan_out(expected, depth, config.leaf_occupancy,
                      config.max_depth);
    if (subsquares == 0) continue;
    const int side = static_cast<int>(std::llround(
        std::sqrt(static_cast<double>(subsquares))));
    GG_CHECK(static_cast<std::int64_t>(side) * side == subsquares,
             "paper_subsquare_count did not return a perfect square");

    squares_[static_cast<std::size_t>(id)].subdivision_side = side;
    const Rect parent_rect = squares_[static_cast<std::size_t>(id)].rect;

    // Distribute members to children in one pass.
    std::vector<std::vector<std::uint32_t>> child_members(
        static_cast<std::size_t>(side) * side);
    for (const std::uint32_t m :
         squares_[static_cast<std::size_t>(id)].members) {
      const int sub = parent_rect.subsquare_index((*points_)[m], side);
      GG_CHECK(sub >= 0, "hierarchy member outside its own square");
      child_members[static_cast<std::size_t>(sub)].push_back(m);
    }

    const double child_expected =
        expected / (static_cast<double>(side) * side);
    for (int sub = 0; sub < side * side; ++sub) {
      SquareInfo child;
      child.rect = parent_rect.subsquare(sub, side);
      child.depth = depth + 1;
      child.parent = id;
      child.expected_occupancy = child_expected;
      child.members = std::move(child_members[static_cast<std::size_t>(sub)]);
      const int child_id = static_cast<int>(squares_.size());
      squares_[static_cast<std::size_t>(id)].children.push_back(child_id);
      squares_.push_back(std::move(child));
      queue.push_back(child_id);
    }
  }

  // Representatives, leaf mapping, conflict accounting.
  leaf_of_node_.assign(n, -1);
  represented_by_node_.assign(n, -1);
  for (std::size_t id = 0; id < squares_.size(); ++id) {
    SquareInfo& sq = squares_[id];
    sq.representative = nearest_member(*points_, sq.members, sq.rect.center());
    if (sq.representative < 0) ++empty_squares_;
    if (sq.is_leaf()) {
      for (const std::uint32_t m : sq.members) {
        leaf_of_node_[m] = static_cast<int>(id);
      }
    }
    if (sq.representative >= 0) {
      auto& slot = represented_by_node_[static_cast<std::size_t>(
          sq.representative)];
      if (slot == -1) {
        slot = static_cast<int>(id);
      } else {
        ++rep_conflicts_;
        // Keep the shallowest (closest to root) square: its Level dominates.
        if (sq.depth < squares_[static_cast<std::size_t>(slot)].depth) {
          slot = static_cast<int>(id);
        }
      }
    }
  }
}

void PartitionHierarchy::finalize_levels() {
  int max_depth = 0;
  for (const SquareInfo& sq : squares_) {
    max_depth = std::max(max_depth, sq.depth);
  }
  levels_ = 1 + max_depth;

  node_levels_.assign(points_->size(), 0);
  for (std::size_t node = 0; node < points_->size(); ++node) {
    const int sq_id = represented_by_node_[node];
    if (sq_id < 0) continue;
    node_levels_[node] = levels_ - squares_[static_cast<std::size_t>(sq_id)].depth;
  }
}

const SquareInfo& PartitionHierarchy::square(int id) const {
  GG_CHECK_ARG(id >= 0 && static_cast<std::size_t>(id) < squares_.size(),
               "square id out of range");
  return squares_[static_cast<std::size_t>(id)];
}

int PartitionHierarchy::node_level(std::uint32_t node) const {
  GG_CHECK_ARG(node < node_levels_.size(), "node index out of range");
  return node_levels_[node];
}

int PartitionHierarchy::represented_square(std::uint32_t node) const {
  GG_CHECK_ARG(node < represented_by_node_.size(), "node index out of range");
  return represented_by_node_[node];
}

int PartitionHierarchy::leaf_of(std::uint32_t node) const {
  GG_CHECK_ARG(node < leaf_of_node_.size(), "node index out of range");
  return leaf_of_node_[node];
}

std::vector<int> PartitionHierarchy::squares_at_depth(int depth) const {
  std::vector<int> out;
  for (std::size_t id = 0; id < squares_.size(); ++id) {
    if (squares_[id].depth == depth) out.push_back(static_cast<int>(id));
  }
  return out;
}

std::vector<int> PartitionHierarchy::leaves() const {
  std::vector<int> out;
  for (std::size_t id = 0; id < squares_.size(); ++id) {
    if (squares_[id].is_leaf()) out.push_back(static_cast<int>(id));
  }
  return out;
}

std::string PartitionHierarchy::summary() const {
  std::ostringstream os;
  os << "hierarchy: " << squares_.size() << " squares, " << levels_
     << " levels";
  for (int d = 0; d < levels_; ++d) {
    const auto at_depth = squares_at_depth(d);
    if (at_depth.empty()) continue;
    os << "\n  depth " << d << ": " << at_depth.size() << " squares, E#="
       << squares_[static_cast<std::size_t>(at_depth.front())]
              .expected_occupancy;
  }
  if (rep_conflicts_ > 0) os << "\n  rep conflicts: " << rep_conflicts_;
  if (empty_squares_ > 0) os << "\n  empty squares: " << empty_squares_;
  return os.str();
}

}  // namespace geogossip::geometry
