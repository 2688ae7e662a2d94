// The benchmark's workloads.  Each fills a Ledger for one run and records
// attempted/failed operations and correctness-gate results in an Outcome.
#ifndef GEOGOSSIP_E2E_BENCH_WORKLOADS_HPP
#define GEOGOSSIP_E2E_BENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "exp/scenario.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/telemetry.hpp"
#include "ledger.hpp"

namespace e2e {

struct RunSpec {
  std::string workload;
  std::uint64_t seed = 1;
  /// Minimum length of the timed phase.
  double seconds = 10.0;
  /// false: end-to-end metrics, tracing off.  true: per-layer metrics.
  bool trace = false;
  unsigned threads = 4;
  /// Shrunken sizes for the self-test.
  bool tiny = false;
  /// Working directory for sinks, snapshots and fleet directories.
  std::string workdir;
  /// Chrome trace written by a traced run; empty = none.
  std::string trace_out;
};

void run_sweep_workload(const RunSpec& spec, Ledger& ledger,
                        Outcome& outcome);
void run_scale_workload(const RunSpec& spec, Ledger& ledger,
                        Outcome& outcome);

// ------------------------------------------------------------ probes ----
// Layer probes shared by the workloads: each calls one layer's public
// entry point directly on seeded inputs and times it.

/// route_to_node over `pairs` seeded (source, destination) pairs on `graph`
/// (its routing mirror must already be built).  Sets routing.route_ns and
/// routing.hop_ns.
void probe_routing(const geogossip::graph::GeometricGraph& graph,
                   std::uint64_t seed, std::size_t pairs, Ledger& ledger);

/// Constructs each tick-engine protocol the scenario uses (smallest n of
/// its kind) and runs it to epsilon with sim::run_to_epsilon.  Sets
/// gossip.tick_ns.*, gossip.acceptance_setup_s and sim.ticks.
void probe_tick_protocols(const geogossip::exp::Scenario& scenario,
                          std::uint64_t seed, Ledger& ledger);

/// Computed array sizes of a built graph: CSR (offsets + targets) and the
/// routing mirror (ids + radii).
void record_graph_sizes(const geogossip::graph::GeometricGraph& graph,
                        Ledger& ledger);

/// Copies the library's obs counters (routing.*, gossip.*,
/// protocol.tracker_refreshes) into the per-layer ledger.
void record_counters(const geogossip::obs::Snapshot& snapshot,
                     Ledger& ledger);

}  // namespace e2e

#endif  // GEOGOSSIP_E2E_BENCH_WORKLOADS_HPP
