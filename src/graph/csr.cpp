#include "graph/csr.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace geogossip::graph {

void CsrGraph::check_node_count(std::uint64_t node_count) {
  GG_CHECK_ARG(node_count <= max_node_count(),
               "graph node count " + std::to_string(node_count) +
                   " exceeds the 32-bit NodeId ceiling (2^32); shard the "
                   "deployment or widen NodeId");
}

void CsrGraph::check_shape(const std::vector<std::uint64_t>& offsets,
                           const std::vector<NodeId>& targets) {
  GG_CHECK_ARG(!offsets.empty(), "from_parts: offsets must have n+1 entries");
  check_node_count(offsets.size() - 1);
  GG_CHECK_ARG(offsets.front() == 0, "from_parts: offsets must start at 0");
  GG_CHECK_ARG(offsets.back() == targets.size(),
               "from_parts: offsets.back() must equal targets.size()");
}

void CsrGraph::check_row(NodeId node, std::span<const NodeId> row,
                         std::uint64_t node_count) {
  // A valid row is strictly increasing, ends below node_count and skips
  // `node`: one branch-free pass decides that, and only a failing row
  // pays for the checks that name what is wrong.
  bool valid = row.empty() || row.back() < node_count;
  for (std::size_t k = 0; k < row.size(); ++k) {
    valid &= (k == 0 || row[k - 1] < row[k]) & (row[k] != node);
  }
  if (valid) return;
  GG_CHECK_ARG(std::is_sorted(row.begin(), row.end()),
               "from_parts: per-node targets must be sorted");
  GG_CHECK_ARG(std::adjacent_find(row.begin(), row.end()) == row.end(),
               "from_parts: duplicate edge in row");
  for (const NodeId target : row) {
    GG_CHECK_ARG(target < node_count, "from_parts: target out of range");
    GG_CHECK_ARG(target != node, "from_parts: self-loop in row");
  }
}

CsrGraph CsrGraph::adopt_checked(std::vector<std::uint64_t> offsets,
                                 std::vector<NodeId> targets) {
  check_shape(offsets, targets);
  return CsrGraph(std::move(offsets), std::move(targets));
}

CsrGraph CsrGraph::from_parts(std::vector<std::uint64_t> offsets,
                              std::vector<NodeId> targets) {
  check_shape(offsets, targets);
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  // Validate the whole offset array BEFORE forming any span from it:
  // monotone plus front==0/back==size bounds every entry by targets.size(),
  // so the row spans below cannot point past the buffer.
  for (NodeId v = 0; v < n; ++v) {
    GG_CHECK_ARG(offsets[v] <= offsets[v + 1],
                 "from_parts: offsets must be non-decreasing");
  }
  for (NodeId v = 0; v < n; ++v) {
    check_row(v, {targets.data() + offsets[v], targets.data() + offsets[v + 1]},
              n);
  }
  return CsrGraph(std::move(offsets), std::move(targets));
}

CsrGraph CsrGraph::from_edges(
    NodeId node_count, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(node_count) + 1,
                                     0);
  for (const auto& [a, b] : edges) {
    GG_CHECK_ARG(a < node_count && b < node_count,
                 "edge endpoint out of range");
    GG_CHECK_ARG(a != b, "self-loops are not allowed");
    ++offsets[a + 1];
    ++offsets[b + 1];
  }
  for (std::size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];

  std::vector<NodeId> targets(offsets.back());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [a, b] : edges) {
    targets[cursor[a]++] = b;
    targets[cursor[b]++] = a;
  }
  for (NodeId v = 0; v < node_count; ++v) {
    const auto begin = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto end = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    std::sort(begin, end);
    GG_CHECK_ARG(std::adjacent_find(begin, end) == end,
                 "duplicate edge in input");
  }
  return CsrGraph(std::move(offsets), std::move(targets));
}

std::span<const NodeId> CsrGraph::neighbors(NodeId node) const {
  GG_CHECK_ARG(node < node_count(), "node out of range");
  return {targets_.data() + offsets_[node],
          targets_.data() + offsets_[node + 1]};
}

std::size_t CsrGraph::degree(NodeId node) const {
  GG_CHECK_ARG(node < node_count(), "node out of range");
  return static_cast<std::size_t>(offsets_[node + 1] - offsets_[node]);
}

bool CsrGraph::has_edge(NodeId a, NodeId b) const {
  GG_CHECK_ARG(a < node_count() && b < node_count(), "node out of range");
  const auto nbrs = neighbors(a);
  return std::binary_search(nbrs.begin(), nbrs.end(), b);
}

std::size_t CsrGraph::min_degree() const noexcept {
  if (node_count() == 0) return 0;
  std::size_t best = degree(0);
  for (NodeId v = 1; v < node_count(); ++v) best = std::min(best, degree(v));
  return best;
}

std::size_t CsrGraph::max_degree() const noexcept {
  std::size_t best = 0;
  for (NodeId v = 0; v < node_count(); ++v) best = std::max(best, degree(v));
  return best;
}

double CsrGraph::mean_degree() const noexcept {
  if (node_count() == 0) return 0.0;
  return static_cast<double>(targets_.size()) /
         static_cast<double>(node_count());
}

}  // namespace geogossip::graph
