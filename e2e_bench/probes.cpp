#include "workloads.hpp"

#include <cmath>
#include <map>
#include <memory>

#include "core/decentralized.hpp"
#include "core/hierarchy_protocol.hpp"
#include "gossip/geographic.hpp"
#include "gossip/pairwise.hpp"
#include "gossip/path_averaging.hpp"
#include "routing/greedy.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"

namespace gg = geogossip;

namespace e2e {

namespace {

/// Seed streams of the probes, disjoint from the scenarios' cell streams.
constexpr std::uint64_t kRouteStream = 0x70b3;
constexpr std::uint64_t kTickStream = 0x71c6;

const char* tick_metric(gg::core::ProtocolKind kind) {
  switch (kind) {
    case gg::core::ProtocolKind::kBoydPairwise:
      return "gossip.tick_ns.pairwise";
    case gg::core::ProtocolKind::kDimakisGeographic:
      return "gossip.tick_ns.geographic";
    case gg::core::ProtocolKind::kPathAveraging:
      return "gossip.tick_ns.path_avg";
    default:
      return nullptr;  // tick engine, but no per-kind tick metric
  }
}

bool uses_tick_engine(gg::core::ProtocolKind kind) {
  return kind != gg::core::ProtocolKind::kAffineOneLevel &&
         kind != gg::core::ProtocolKind::kAffineMultilevel;
}

std::unique_ptr<gg::sim::GossipProtocol> make_protocol(
    const gg::exp::Cell& cell, const gg::graph::GeometricGraph& graph,
    std::vector<double> x0, gg::Rng& rng) {
  using gg::core::ProtocolKind;
  switch (cell.kind) {
    case ProtocolKind::kBoydPairwise:
      return std::make_unique<gg::gossip::PairwiseGossip>(graph,
                                                          std::move(x0), rng);
    case ProtocolKind::kDimakisGeographic:
      return std::make_unique<gg::gossip::GeographicGossip>(
          graph, std::move(x0), rng, cell.options.geographic);
    case ProtocolKind::kPathAveraging:
      return std::make_unique<gg::gossip::PathAveragingGossip>(
          graph, std::move(x0), rng);
    case ProtocolKind::kAffineAsync: {
      gg::core::HierarchyProtocolConfig config = cell.options.async_protocol;
      config.eps = cell.options.eps;
      return std::make_unique<gg::core::HierarchicalAffineProtocol>(
          graph, std::move(x0), rng, config);
    }
    case ProtocolKind::kAffineDecentralized:
      return std::make_unique<gg::core::DecentralizedAffineGossip>(
          graph, std::move(x0), rng, cell.options.decentralized);
    default:
      return nullptr;
  }
}

}  // namespace

void probe_routing(const gg::graph::GeometricGraph& graph, std::uint64_t seed,
                   std::size_t pairs, Ledger& ledger) {
  const std::size_t n = graph.node_count();
  gg::Rng rng(gg::derive_seed(seed, kRouteStream));
  std::vector<std::pair<gg::graph::NodeId, gg::graph::NodeId>> set(pairs);
  for (auto& [src, dst] : set) {
    src = static_cast<gg::graph::NodeId>(rng.below(n));
    dst = static_cast<gg::graph::NodeId>(rng.below_excluding(n, src));
  }
  gg::obs::Span span("bench.route_probe", "pairs",
                     static_cast<std::int64_t>(pairs));
  std::uint64_t hops = 0;
  const auto start = Clock::now();
  for (const auto& [src, dst] : set) {
    hops += gg::routing::route_to_node(graph, src, dst).hops;
  }
  const double elapsed = seconds_since(start);
  ledger.set("routing.route_ns", elapsed * 1e9 / static_cast<double>(pairs));
  ledger.set("routing.hop_ns",
             hops == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(hops));
}

void probe_tick_protocols(const gg::exp::Scenario& scenario,
                          std::uint64_t seed, Ledger& ledger) {
  // Smallest cell of each tick-engine kind: one full run to epsilon each.
  std::map<gg::core::ProtocolKind, const gg::exp::Cell*> picks;
  for (const gg::exp::Cell& cell : scenario.cells) {
    if (!uses_tick_engine(cell.kind)) continue;
    const auto it = picks.find(cell.kind);
    if (it == picks.end() || cell.n < it->second->n) picks[cell.kind] = &cell;
  }
  std::uint64_t ticks = 0;
  for (const auto& [kind, cell] : picks) {
    gg::Rng rng(gg::derive_seed(seed, kTickStream + static_cast<int>(kind)));
    const auto graph = gg::graph::GeometricGraph::sample(
        cell->n, cell->radius_multiplier, rng);
    auto x0 = gg::sim::gaussian_field(cell->n, rng);
    x0[rng.below(cell->n)] += std::sqrt(static_cast<double>(cell->n));
    gg::sim::center_and_normalize(x0);

    gg::obs::Span span("bench.tick_probe", "n",
                       static_cast<std::int64_t>(cell->n), "kind",
                       static_cast<std::int64_t>(kind));
    const auto built = Clock::now();
    auto protocol = make_protocol(*cell, graph, std::move(x0), rng);
    if (kind == gg::core::ProtocolKind::kDimakisGeographic) {
      ledger.set("gossip.acceptance_setup_s", seconds_since(built));
    }

    gg::sim::RunConfig config;
    config.epsilon = cell->options.eps;
    const double nn = static_cast<double>(cell->n);
    config.max_ticks =
        cell->options.max_ticks != 0
            ? cell->options.max_ticks
            : static_cast<std::uint64_t>(4096.0 * nn * std::log(nn) *
                                         std::log(1.0 / cell->options.eps));
    const auto start = Clock::now();
    const auto run = gg::sim::run_to_epsilon(*protocol, rng, config);
    const double elapsed = seconds_since(start);
    ticks += run.ticks;
    if (const char* metric = tick_metric(kind); metric != nullptr) {
      ledger.set(metric, run.ticks == 0
                             ? 0.0
                             : elapsed * 1e9 / static_cast<double>(run.ticks));
    }
  }
  ledger.set("sim.ticks", static_cast<double>(ticks));
}

void record_graph_sizes(const gg::graph::GeometricGraph& graph,
                        Ledger& ledger) {
  constexpr double kMiB = 1024.0 * 1024.0;
  const auto& csr = graph.adjacency();
  const double arcs = 2.0 * static_cast<double>(csr.edge_count());
  const double offsets = static_cast<double>(csr.offsets().size());
  ledger.set("graph.csr_mb_computed",
             (offsets * sizeof(std::uint64_t) +
              arcs * sizeof(gg::graph::NodeId)) / kMiB);
  ledger.set("graph.mirror_mb_computed",
             arcs * (sizeof(gg::graph::NodeId) + sizeof(float)) / kMiB);
}

void record_counters(const gg::obs::Snapshot& snapshot, Ledger& ledger) {
  const auto count = [&](const char* name) -> double {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  const double routes = count("routing.routes");
  const double hops = count("routing.hops");
  const double exchanges = count("gossip.exchanges");
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  ledger.set("routing.routes", routes);
  ledger.set("routing.hops", hops);
  ledger.set("routing.pruned_per_hop",
             ratio(count("routing.pruned_candidates"), hops));
  ledger.set("routing.fail_frac",
             ratio(count("routing.dead_ends") +
                       count("routing.hop_budget_exceeded"),
                   routes));
  ledger.set("gossip.exchanges", exchanges);
  ledger.set("gossip.rejections_per_exchange",
             ratio(count("gossip.acceptance_rejections"), exchanges));
  ledger.set("sim.tracker_refreshes", count("protocol.tracker_refreshes"));
}

}  // namespace e2e
