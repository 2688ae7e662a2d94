// scale-2e18: geometries at n = 2^18 — graph built on a thread pool,
// eager routing mirror, Dimakis acceptance weights — all counted as
// set-up, then fixed seeded budgets of geographic ticks as the timed
// phase.  The graph and mirror (170 MiB) leave the private caches, so
// build, mirror and routing run under cache misses here and nowhere else.
// Not a workload of record: its tick cost follows the shared host's
// memory traffic too closely to hold a relative bound between runs.
#include "workloads.hpp"

#include <cmath>
#include <memory>

#include "gossip/geographic.hpp"
#include "obs/memory.hpp"
#include "obs/trace_export.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/thread_pool.hpp"

namespace gg = geogossip;

namespace e2e {

namespace {

constexpr std::size_t kNodes = std::size_t{1} << 18;
constexpr std::size_t kTinyNodes = std::size_t{1} << 12;
constexpr double kRadiusMultiplier = 1.2;
/// Geographic ticks per timed segment.
constexpr std::uint64_t kSegmentTicks = 2000;
constexpr std::uint64_t kTinySegmentTicks = 2000;
/// Seconds one segment takes on the reference machine; a run makes
/// about ceil(--seconds / this) segments.
constexpr double kNominalSegmentSeconds = 0.9;
/// Geometries per run, each set up once and then ticked for an equal
/// share of the segments: setup_s is the median of their set-ups, and the
/// segment times average over geometries, whose smallest Voronoi weight
/// sets the rejection rate (and with it the tick cost).
constexpr std::uint64_t kGeometries = 4;
/// |sum x(end) - sum x(start)| allowed per segment (unit-norm field).
constexpr double kDriftTolerance = 1e-6;
constexpr std::uint64_t kGeometryStream = 0x5ca1e;
constexpr std::uint64_t kSegmentStream = 0x7e9;

struct Geometry {
  std::unique_ptr<gg::graph::GeometricGraph> graph;
  std::unique_ptr<gg::gossip::GeographicGossip> protocol;
  double build_s = 0.0;
  double mirror_s = 0.0;
  double acceptance_s = 0.0;
};

Geometry set_up(const RunSpec& spec, const gg::ThreadPool& pool,
               std::uint64_t index) {
  Geometry geo;
  const std::size_t n = spec.tiny ? kTinyNodes : kNodes;
  gg::Rng rng(gg::derive_seed(spec.seed, kGeometryStream + index));
  gg::graph::BuildOptions options;
  options.pool = &pool;
  auto start = Clock::now();
  geo.graph = std::make_unique<gg::graph::GeometricGraph>(
      gg::graph::GeometricGraph::sample(n, kRadiusMultiplier, rng, options));
  geo.build_s = seconds_since(start);
  // Built right after the graph (what eager_routing_mirror does), timed
  // on its own.
  start = Clock::now();
  geo.graph->ensure_routing_mirror();
  geo.mirror_s = seconds_since(start);

  auto x0 = gg::sim::gaussian_field(n, rng);
  x0[rng.below(n)] += std::sqrt(static_cast<double>(n));
  gg::sim::center_and_normalize(x0);
  start = Clock::now();
  geo.protocol = std::make_unique<gg::gossip::GeographicGossip>(
      *geo.graph, std::move(x0), rng);
  geo.acceptance_s = seconds_since(start);
  return geo;
}

double value_sum(const gg::gossip::GeographicGossip& protocol) {
  double total = 0.0;
  for (const double v : protocol.values()) total += v;
  return total;
}

struct Segment {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ticks = 0;
};

/// Runs segment `index`: exactly the tick budget of geographic gossip on
/// the set-up geometry, from its own seeded clock.  A routed round trip
/// that fails is a failed operation.
Segment run_segment(const RunSpec& spec, Geometry& geo, std::uint64_t index,
                    Outcome& outcome) {
  auto& protocol = *geo.protocol;
  const std::uint64_t budget = spec.tiny ? kTinySegmentTicks : kSegmentTicks;
  gg::Rng rng(gg::derive_seed(spec.seed, kSegmentStream + index));
  gg::sim::RunConfig config;
  config.epsilon = 1e-12;  // unreachable within the budget: run it all
  config.max_ticks = budget;
  const double sum_before = value_sum(protocol);
  const std::uint64_t exchanges = protocol.exchanges();
  const std::uint64_t failed = protocol.failed_routes();

  Segment segment;
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  const auto run = gg::sim::run_to_epsilon(protocol, rng, config);
  segment.wall_s = seconds_since(start);
  segment.cpu_s = process_cpu_seconds() - cpu_start;
  segment.ticks = run.ticks;

  const std::uint64_t new_failed = protocol.failed_routes() - failed;
  outcome.count(protocol.exchanges() - exchanges + new_failed, new_failed);
  if (run.ticks != budget || run.converged) {
    outcome.gate_failed("segment ran " + std::to_string(run.ticks) +
                        " ticks, budget " + std::to_string(budget));
  }
  const double drift = std::abs(value_sum(protocol) - sum_before);
  if (!(drift <= kDriftTolerance)) {
    outcome.gate_failed("segment sum drift " + std::to_string(drift));
  }
  return segment;
}

}  // namespace

void run_scale_workload(const RunSpec& spec, Ledger& ledger,
                        Outcome& outcome) {
  const gg::ThreadPool pool(spec.threads);

  if (spec.trace) {
    Geometry geo = set_up(spec, pool, 0);
    ledger.set("graph.build_s", geo.build_s);
    ledger.set("graph.mirror_s", geo.mirror_s);
    ledger.set("gossip.acceptance_setup_s", geo.acceptance_s);
    record_graph_sizes(*geo.graph, ledger);

    const Segment plain = run_segment(spec, geo, 0, outcome);
    gg::obs::reset();
    gg::obs::set_enabled(true);
    const Segment traced = run_segment(spec, geo, 1, outcome);
    record_counters(gg::obs::snapshot(), ledger);
    ledger.set("sim.ticks", static_cast<double>(traced.ticks));
    ledger.set("gossip.tick_ns.geographic",
               traced.wall_s * 1e9 / static_cast<double>(traced.ticks));
    ledger.set("trace.overhead_frac", traced.cpu_s / plain.cpu_s - 1.0);
    probe_routing(*geo.graph, spec.seed, spec.tiny ? 256 : 8192, ledger);
    if (!spec.trace_out.empty()) {
      gg::obs::write_chrome_trace_file(spec.trace_out, gg::obs::snapshot(),
                                       "e2e_bench " + spec.workload);
    }
    gg::obs::set_enabled(false);
    return;
  }

  const auto per_geometry = static_cast<std::uint64_t>(
      std::ceil(spec.seconds / kNominalSegmentSeconds /
                static_cast<double>(kGeometries)));
  std::vector<double> setup, wall, cpu;
  double rss_mb = 0.0;
  Geometry geo;
  for (std::uint64_t g = 0; g < kGeometries; ++g) {
    // Release the previous geometry first: the high-water mark is one
    // geometry, not several.
    geo.protocol.reset();  // holds a reference into the graph
    geo.graph.reset();
    geo = set_up(spec, pool, g);
    setup.push_back(geo.build_s + geo.mirror_s + geo.acceptance_s);
    for (std::uint64_t i = 0; i < per_geometry; ++i) {
      const Segment segment =
          run_segment(spec, geo, g * per_geometry + i, outcome);
      wall.push_back(segment.wall_s);
      cpu.push_back(segment.cpu_s);
      if (g == 0 && i == 0) {
        rss_mb = static_cast<double>(gg::obs::max_rss_kb()) / 1024.0;
      }
    }
  }
  // The fastest segment, as on the sweeps (see sweeps.cpp).
  ledger.set("wall_s", quantile(wall, 0.0));
  ledger.set("setup_s", median(setup));
  ledger.set("cpu_s", quantile(cpu, 0.0));
  ledger.set("peak_rss_mb", rss_mb);
}

}  // namespace e2e
