#include "graph/connectivity.hpp"

#include <algorithm>
#include <deque>
#include <limits>


namespace geogossip::graph {

std::vector<std::uint32_t> connected_components(const CsrGraph& g) {
  const std::size_t n = g.node_count();
  constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> label(n, kUnvisited);
  std::uint32_t next_label = 0;
  std::deque<NodeId> queue;
  for (NodeId start = 0; start < n; ++start) {
    if (label[start] != kUnvisited) continue;
    label[start] = next_label;
    queue.push_back(start);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const NodeId u : g.neighbors(v)) {
        if (label[u] == kUnvisited) {
          label[u] = next_label;
          queue.push_back(u);
        }
      }
    }
    ++next_label;
  }
  return label;
}

bool is_connected(const CsrGraph& g) {
  if (g.node_count() <= 1) return true;
  const auto labels = connected_components(g);
  return std::all_of(labels.begin(), labels.end(),
                     [](std::uint32_t l) { return l == 0; });
}

std::size_t largest_component_size(const CsrGraph& g) {
  const auto labels = connected_components(g);
  if (labels.empty()) return 0;
  const std::uint32_t max_label =
      *std::max_element(labels.begin(), labels.end());
  std::vector<std::size_t> counts(max_label + 1, 0);
  for (const auto l : labels) ++counts[l];
  return *std::max_element(counts.begin(), counts.end());
}

}  // namespace geogossip::graph
