// The three sweep workloads: sweep-baselines, sweep-affine (plain Runner
// sweeps) and sweep-durable (one fleet worker with records, snapshots and
// the fleet merge).
//
// Tracing off, a run repeats the whole sweep a fixed number of times at
// the same master seed and reports medians; every repetition's CSV must be
// byte-identical to the first.  The traced run adds one telemetry-on
// repetition, a single-threaded pass that calls gg::exp::run_replicate for
// every (cell, replicate) itself — timing it, its JsonLinesSink record and
// its SnapshotStore saves — and whose merged CSV must be byte-identical to
// the threaded one, plus the layer probes.
#include "workloads.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "exp/snapshot_store.hpp"
#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "fleet/worker.hpp"
#include "obs/memory.hpp"
#include "obs/trace_export.hpp"

namespace gg = geogossip;
namespace fs = std::filesystem;

namespace e2e {

namespace {

using gg::core::ProtocolKind;

/// Batch count B of the durable workload's fleet (B > 1: the batch
/// barrier is part of what it measures).
constexpr std::uint32_t kDurableBatches = 4;
/// Snapshot cadence of the durable workload, in engine ticks (top rounds
/// for the round-based protocols).  At 1000 ticks a repetition made ~4000
/// fsync'd saves, and the shared disk's fsync latency then moved wall_s
/// by up to 2x between runs of one seed.
constexpr std::uint64_t kSnapshotEveryTicks = 10000;
/// |sum x(end) - sum x(0)| allowed per replicate; fields are normalized
/// to unit norm, so honest float drift is ~1e-13.
constexpr double kDriftTolerance = 1e-6;
/// Set-up samples per run, at least; setup_s is their median.
constexpr std::size_t kSetupSamples = 101;
/// Batches of the throwaway fleet the lease operations are timed on.
constexpr std::uint32_t kLeaseBatches = 16;

/// Seconds one repetition of each sweep takes on the reference machine
/// (4 threads); a run times ceil(--seconds / this) repetitions, at least
/// three, so the repetition count is a function of --seconds alone.
double nominal_rep_seconds(const std::string& workload) {
  if (workload == "sweep-baselines") return 1.4;
  if (workload == "sweep-affine") return 0.7;
  return 0.75;  // sweep-durable
}

gg::exp::Scenario baselines(bool tiny) {
  gg::exp::Scenario scenario;
  scenario.name = "bench-sweep-baselines";
  scenario.description = "comparison protocols: Boyd, Dimakis, path-avg";
  scenario.replicates = tiny ? 1 : 8;
  // Every routed graph fits in one core's L2 (path averaging at n = 4096
  // is 1.7 MiB).  With Dimakis at 4096 and path averaging at 16384, the
  // routing ran in the L3 the host's other tenants share, and wall_s
  // moved with their load.
  using Sizes = std::vector<std::size_t>;
  const Sizes boyd = tiny ? Sizes{128, 256} : Sizes{1024, 2048};
  const Sizes dimakis = tiny ? Sizes{128, 256} : Sizes{1024, 2048};
  const Sizes path = tiny ? Sizes{256, 512} : Sizes{2048, 4096};
  for (const std::size_t n : boyd) {
    scenario.add(ProtocolKind::kBoydPairwise, n);
  }
  for (const std::size_t n : dimakis) {
    scenario.add(ProtocolKind::kDimakisGeographic, n);
  }
  for (const std::size_t n : path) {
    scenario.add(ProtocolKind::kPathAveraging, n);
  }
  return scenario;
}

gg::exp::Scenario affine(bool tiny) {
  gg::exp::Scenario scenario;
  scenario.name = "bench-sweep-affine";
  scenario.description = "the paper's affine protocols";
  scenario.replicates = tiny ? 1 : 3;
  using Sizes = std::vector<std::size_t>;
  const Sizes round_sizes = tiny ? Sizes{512} : Sizes{8192, 32768};
  for (const std::size_t n : round_sizes) {
    scenario.add(ProtocolKind::kAffineOneLevel, n);
  }
  // Default MultilevelConfig = harmonic beta.  The paper-literal beta
  // cell is left out: one of its replicates can run for seconds without
  // converging, so wall_s would hinge on when it got scheduled.
  for (const std::size_t n : round_sizes) {
    scenario.add(ProtocolKind::kAffineMultilevel, n);
  }
  gg::exp::Cell& async =
      scenario.add(ProtocolKind::kAffineAsync, tiny ? 256 : 1024);
  async.field = gg::exp::CellField::kGaussian;
  gg::exp::Cell& decentral = scenario.add("decentralized | separation 1",
                                      ProtocolKind::kAffineDecentralized,
                                      tiny ? 256 : 4096);
  decentral.field = gg::exp::CellField::kGaussian;
  decentral.options.decentralized.separation = 1.0;
  decentral.options.max_ticks = static_cast<std::uint64_t>(
      2048.0 * static_cast<double>(decentral.n) *
      std::log(1.0 / decentral.options.eps));
  return scenario;
}

gg::exp::Scenario durable(bool tiny) {
  gg::exp::register_builtin_scenarios();
  gg::exp::Scenario e5 =
      gg::exp::ScenarioRegistry::instance().make("e5-quick");
  e5.replicates = tiny ? 1 : 8;
  if (!tiny) return e5;
  gg::exp::Scenario small = e5;
  small.cells.clear();
  for (const gg::exp::Cell& cell : e5.cells) {
    if (cell.n == 256) small.cells.push_back(cell);
  }
  return small;
}

gg::exp::Scenario make_scenario(const RunSpec& spec,
                                std::uint64_t master_seed) {
  gg::exp::Scenario scenario =
      spec.workload == "sweep-baselines" ? baselines(spec.tiny)
      : spec.workload == "sweep-affine"  ? affine(spec.tiny)
                                         : durable(spec.tiny);
  scenario.master_seed = master_seed;
  return scenario;
}

/// Master seed of repetition `index` of a run.
std::uint64_t rep_seed(const RunSpec& spec, std::uint64_t index) {
  return gg::derive_seed(spec.seed, index);
}

std::uint64_t task_count(const gg::exp::Scenario& scenario) {
  return static_cast<std::uint64_t>(scenario.cells.size()) *
         scenario.replicates;
}

std::uint64_t task_seed(const gg::exp::Scenario& scenario,
                        std::size_t cell_index, std::uint32_t replicate) {
  const gg::exp::Cell& cell = scenario.cells[cell_index];
  const std::size_t stream =
      cell.seed_stream == gg::exp::kAutoSeedStream ? cell_index
                                                   : cell.seed_stream;
  return gg::exp::replicate_seed(scenario.master_seed, stream, replicate);
}

/// CSV of a summary as a string.  The threads column is pinned to 0 so
/// files from different thread counts compare byte for byte; every other
/// column is an aggregate that must not depend on the thread count.
std::string csv_of(gg::exp::SweepSummary summary) {
  summary.threads = 0;
  std::ostringstream out;
  gg::exp::CsvSink sink(out);
  sink.write(summary);
  return out.str();
}

/// Counts non-converged replicates as failed and gates on conservation
/// of the converged ones (a diverged replicate's values, and with them
/// its rounding error, are unbounded; it is already counted as failed).
void check_replicates(const gg::exp::SweepSummary& summary,
                      Outcome& outcome) {
  for (const gg::exp::CellSummary& cell : summary.cells) {
    outcome.count(cell.replicates, cell.replicates - cell.converged);
    if (cell.converged != cell.replicates) {
      std::cerr << "e2e_bench: " << cell.replicates - cell.converged
                << " replicate(s) of cell '" << cell.cell.label << "' (n "
                << cell.cell.n << ", master seed " << summary.master_seed
                << ") missed epsilon\n";
    }
    for (const gg::exp::ReplicateResult& result : cell.raw) {
      if (result.converged && !(result.sum_drift <= kDriftTolerance)) {
        outcome.gate_failed("sum drift " + std::to_string(result.sum_drift) +
                            " in cell '" + cell.cell.label + "'");
      }
    }
  }
}

/// Folds every record file of a finished fleet and aggregates it through
/// the Runner, exactly as `--fleet-merge` does.
gg::exp::SweepSummary fleet_merge(const gg::exp::Scenario& scenario,
                              const std::string& fleet_dir, unsigned threads,
                              Outcome& outcome) {
  auto checkpoint = std::make_shared<gg::exp::Checkpoint>(
      scenario.name, scenario.master_seed);
  for (const std::string& path : gg::fleet::all_record_files(fleet_dir)) {
    checkpoint->load_file(path);
  }
  if (checkpoint->size() != task_count(scenario)) {
    // The Runner would quietly re-run missing replicates; a merge that
    // does not cover the sweep is a lost record.
    outcome.gate_failed("fleet merge covers " +
                        std::to_string(checkpoint->size()) + " of " +
                        std::to_string(task_count(scenario)) + " replicates");
  }
  gg::exp::RunnerOptions options;
  options.threads = threads;
  options.keep_replicates = true;
  options.resume_from = checkpoint;
  return gg::exp::Runner(options).run(scenario);
}

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double merge_s = 0.0;  ///< sweep-durable only
  gg::exp::SweepSummary summary;
};

/// One repetition: set-up (timed apart), then the sweep from opening its
/// CSV until the CSV is flushed.  `run` = false stops after set-up (extra set-up samples).
/// `traced` is the telemetry state the repetition ends in.
Rep sweep_rep(const RunSpec& spec, std::uint64_t master_seed,
              const std::string& tag, bool run, bool traced,
              Outcome& outcome) {
  Rep rep;
  const std::string csv_path = spec.workdir + "/" + tag + ".csv";
  const std::string fleet_dir = spec.workdir + "/fleet-" + tag;
  const bool is_durable = spec.workload == "sweep-durable";

  const auto setup_start = Clock::now();
  const gg::exp::Scenario scenario = make_scenario(spec, master_seed);
  std::optional<gg::exp::Runner> runner;
  if (is_durable) {
    // The fleet plan with its queue tickets, the lease store, and the
    // snapshot directory's stale-temp sweep.
    gg::fleet::ensure_plan(fleet_dir, scenario, kDurableBatches);
    const gg::fleet::LeaseStore leases(fleet_dir);
    const gg::exp::SnapshotStore snaps(gg::fleet::snaps_dir(fleet_dir),
                                       scenario.name, scenario.master_seed,
                                       0.0);
  } else {
    gg::exp::RunnerOptions options;
    options.threads = spec.threads;
    options.keep_replicates = true;
    runner.emplace(options);
  }
  rep.setup_s = seconds_since(setup_start);

  if (run) {
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    std::ofstream csv(csv_path, std::ios::binary | std::ios::trunc);
    gg::exp::CsvSink sink(csv);
    if (is_durable) {
      gg::fleet::WorkerOptions worker;
      worker.fleet_dir = fleet_dir;
      worker.worker = "bench";
      worker.batches = kDurableBatches;
      worker.threads = spec.threads;
      worker.snapshot_every_ticks = kSnapshotEveryTicks;
      worker.snapshot_every_seconds = 0.0;  // tick cadence: repeatable
      std::ostringstream log;
      gg::fleet::run_worker(scenario, worker, log);
      // run_worker switches telemetry on for its stats file; the merge
      // below is not part of that.
      gg::obs::set_enabled(traced);
      const auto merge_start = Clock::now();
      rep.summary = fleet_merge(scenario, fleet_dir, spec.threads, outcome);
      rep.summary.threads = 0;
      sink.write(rep.summary);
      csv.close();
      rep.merge_s = seconds_since(merge_start);
    } else {
      rep.summary = runner->run(scenario);
      rep.summary.threads = 0;
      sink.write(rep.summary);
      csv.close();
    }
    rep.wall_s = seconds_since(start);
    rep.cpu_s = process_cpu_seconds() - cpu_start;
    if (csv.fail()) outcome.gate_failed("writing " + csv_path + " failed");
  }
  std::error_code ec;
  fs::remove_all(fleet_dir, ec);
  return rep;
}

// ----------------------------------------------------------- traced ----

struct SerialPass {
  std::vector<double> replicate_s;  ///< per task, index order
  std::vector<double> write_us;
  std::vector<double> save_us;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t sink_bytes = 0;
  double load_s = 0.0;
  std::string csv;
};

/// Single-threaded pass over every (cell, replicate): exp::run_replicate,
/// then JsonLinesSink::write_replicate, each timed; with `snapshots`, a
/// SnapshotStore saves at the durable cadence.  The record file is loaded
/// back with Checkpoint::load_file and aggregated into a CSV.
SerialPass serial_pass(const gg::exp::Scenario& scenario, const RunSpec& spec,
                       bool snapshots, Outcome& outcome) {
  SerialPass pass;
  const std::string records = spec.workdir + "/serial.jsonl";
  std::unique_ptr<gg::exp::SnapshotStore> store;
  if (snapshots) {
    store = std::make_unique<gg::exp::SnapshotStore>(
        spec.workdir + "/serial-snaps", scenario.name, scenario.master_seed,
        0.0);
  }
  {
    gg::exp::JsonLinesSink sink(records);
    const std::uint32_t replicates = scenario.replicates;
    for (std::uint64_t task = 0; task < task_count(scenario); ++task) {
      const std::size_t cell_index = task / replicates;
      const auto replicate = static_cast<std::uint32_t>(task % replicates);
      const gg::exp::Cell& cell = scenario.cells[cell_index];
      const std::uint64_t seed = task_seed(scenario, cell_index, replicate);
      gg::sim::CheckpointPolicy policy;
      if (store) {
        policy.every_ticks = kSnapshotEveryTicks;
        policy.persist = [&](std::string_view payload, std::uint64_t ticks) {
          gg::obs::Span span("bench.snapshot_save");
          const auto start = Clock::now();
          store->save(cell_index, replicate, seed, ticks, payload);
          pass.save_us.push_back(seconds_since(start) * 1e6);
          pass.snapshot_bytes += payload.size();
        };
      }
      gg::exp::ReplicateResult result;
      {
        gg::obs::Span span("bench.run_replicate", "cell",
                           static_cast<std::int64_t>(cell_index), "replicate",
                           replicate);
        const auto start = Clock::now();
        result = gg::exp::run_replicate(cell, seed, policy, {});
        pass.replicate_s.push_back(seconds_since(start));
      }
      if (store) store->remove(cell_index, replicate);
      gg::obs::Span span("bench.write_replicate");
      const auto start = Clock::now();
      sink.write_replicate(scenario.name, scenario.master_seed, cell,
                           cell_index, replicate, result);
      pass.write_us.push_back(seconds_since(start) * 1e6);
    }
  }
  pass.sink_bytes = fs::file_size(records);

  auto checkpoint = std::make_shared<gg::exp::Checkpoint>(
      scenario.name, scenario.master_seed);
  {
    gg::obs::Span span("bench.checkpoint_load");
    const auto start = Clock::now();
    checkpoint->load_file(records);
    pass.load_s = seconds_since(start);
  }
  if (checkpoint->size() != task_count(scenario)) {
    outcome.gate_failed("serial records hold " +
                        std::to_string(checkpoint->size()) + " of " +
                        std::to_string(task_count(scenario)) + " replicates");
  }
  gg::exp::RunnerOptions options;
  options.threads = 1;
  options.keep_replicates = true;
  options.resume_from = checkpoint;
  const gg::exp::SweepSummary summary = gg::exp::Runner(options).run(scenario);
  check_replicates(summary, outcome);
  pass.csv = csv_of(summary);
  return pass;
}

/// Sums the library's own graph_build / routing_mirror / protocol_run
/// spans of the traced repetition into the graph and core metrics.
void record_library_spans(const gg::obs::Snapshot& snapshot, Ledger& ledger) {
  double build = 0.0;
  double mirror = 0.0;
  std::map<std::string, double> core;
  for (const gg::obs::Event& event : snapshot.events) {
    const double s = static_cast<double>(event.end_ns - event.start_ns) * 1e-9;
    const std::string name = event.name;
    if (name == "graph_build") build += s;
    if (name == "routing_mirror") mirror += s;
    if (name != "protocol_run") continue;
    switch (static_cast<ProtocolKind>(event.arg_b)) {
      case ProtocolKind::kAffineOneLevel:
        core["core.run_s.affine-1level"] += s;
        break;
      case ProtocolKind::kAffineMultilevel:
        core["core.run_s.affine-multi"] += s;
        break;
      case ProtocolKind::kAffineAsync:
        core["core.run_s.affine-async"] += s;
        break;
      case ProtocolKind::kAffineDecentralized:
        core["core.run_s.decentralized"] += s;
        break;
      default:
        break;  // gossip kinds: timed per tick by the probes
    }
  }
  ledger.set("graph.build_s", build);
  ledger.set("graph.mirror_s", mirror);
  for (const auto& [metric, seconds] : core) ledger.set(metric, seconds);
}

/// Lease claim / renew / release on a throwaway fleet directory.
void probe_leases(const gg::exp::Scenario& scenario, const RunSpec& spec,
                  Ledger& ledger, Outcome& outcome) {
  const std::string dir = spec.workdir + "/lease-fleet";
  const auto batches = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kLeaseBatches, task_count(scenario)));
  gg::fleet::ensure_plan(dir, scenario, batches);
  const gg::fleet::LeaseStore store(dir);
  std::vector<double> claim, renew, release;
  for (std::uint32_t batch = 0; batch < batches; ++batch) {
    auto start = Clock::now();
    auto lease = store.try_claim(batch, "bench", 30.0, "hb/bench.jsonl");
    claim.push_back(seconds_since(start) * 1e3);
    if (!lease) {
      outcome.gate_failed("lease claim of an unclaimed batch failed");
      continue;
    }
    start = Clock::now();
    const bool held = store.renew(*lease);
    renew.push_back(seconds_since(start) * 1e3);
    if (!held) outcome.gate_failed("renewing a held lease failed");
    start = Clock::now();
    store.release(*lease);
    release.push_back(seconds_since(start) * 1e3);
  }
  ledger.set("fleet.claim_ms", median(claim));
  ledger.set("fleet.renew_ms", median(renew));
  ledger.set("fleet.release_ms", median(release));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Runs each fleet batch as Runner shard b/B (records and snapshots as
/// the worker writes them) and compares its wall time with the serial
/// replicate time of the batch's tasks.
double batch_idle_frac(const gg::exp::Scenario& scenario, const RunSpec& spec,
                       const std::vector<double>& replicate_s) {
  double busy = 0.0;
  double capacity = 0.0;
  for (std::uint32_t batch = 0; batch < kDurableBatches; ++batch) {
    const std::string tag = spec.workdir + "/batch-" + std::to_string(batch);
    gg::exp::JsonLinesSink sink(tag + ".jsonl");
    gg::exp::RunnerOptions options;
    options.threads = spec.threads;
    options.shard_index = batch;
    options.shard_count = kDurableBatches;
    options.snapshot_dir = tag + "-snaps";
    options.snapshot_every_ticks = kSnapshotEveryTicks;
    options.progress = [&](const gg::exp::Cell& cell, std::size_t cell_index,
                           std::uint32_t replicate,
                           const gg::exp::ReplicateResult& result) {
      sink.write_replicate(scenario.name, scenario.master_seed, cell,
                           cell_index, replicate, result);
    };
    gg::obs::Span span("bench.batch", "batch", batch);
    const auto start = Clock::now();
    gg::exp::Runner(options).run(scenario);
    capacity += seconds_since(start) * spec.threads;
    for (std::size_t task = batch; task < replicate_s.size();
         task += kDurableBatches) {
      busy += replicate_s[task];
    }
  }
  return capacity == 0.0 ? 0.0 : 1.0 - busy / capacity;
}

void traced_run(const RunSpec& spec, Ledger& ledger, Outcome& outcome) {
  const bool is_durable = spec.workload == "sweep-durable";
  const std::uint64_t master_seed = rep_seed(spec, 0);
  const gg::exp::Scenario scenario = make_scenario(spec, master_seed);

  // Two untraced repetitions: the thread-parallel CSV the serial pass
  // must reproduce, and the baseline of parallel efficiency (the faster
  // of the two, the less disturbed) and of tracing overhead.
  gg::obs::set_enabled(false);
  std::vector<Rep> plain;
  for (const char* tag : {"untraced0", "untraced1"}) {
    plain.push_back(sweep_rep(spec, master_seed, tag, true, false, outcome));
    check_replicates(plain.back().summary, outcome);
  }
  const std::string parallel_csv = csv_of(plain[0].summary);
  if (csv_of(plain[1].summary) != parallel_csv) {
    outcome.gate_failed("repeated seed: CSV differs between repetitions");
  }
  const double plain_wall = std::min(plain[0].wall_s, plain[1].wall_s);
  const double plain_cpu = std::min(plain[0].cpu_s, plain[1].cpu_s);

  // Traced repetition: library counters and spans, at spec.threads.
  gg::obs::reset();
  gg::obs::set_enabled(true);
  const Rep traced =
      sweep_rep(spec, master_seed, "traced", true, true, outcome);
  check_replicates(traced.summary, outcome);
  const gg::obs::Snapshot library = gg::obs::snapshot();
  record_counters(library, ledger);
  record_library_spans(library, ledger);
  // CPU time, not wall: the same work traced and untraced, free of the
  // makespan's scheduling noise.
  ledger.set("trace.overhead_frac", traced.cpu_s / plain_cpu - 1.0);
  if (is_durable) ledger.set("fleet.merge_s", traced.merge_s);

  const SerialPass pass = serial_pass(scenario, spec, is_durable, outcome);
  if (pass.csv != parallel_csv) {
    outcome.gate_failed("serial-pass CSV differs from the " +
                        std::to_string(spec.threads) + "-thread CSV");
  }
  ledger.set("exp.replicate_ms.p50", quantile(pass.replicate_s, 0.5) * 1e3);
  ledger.set("exp.replicate_ms.p90", quantile(pass.replicate_s, 0.9) * 1e3);
  ledger.set("exp.replicate_ms.max", quantile(pass.replicate_s, 1.0) * 1e3);
  ledger.set("exp.replicate_ms.count",
             static_cast<double>(pass.replicate_s.size()));
  ledger.set("exp.parallel_eff",
             sum(pass.replicate_s) / (spec.threads * plain_wall));
  ledger.set("exp.sink.write_us.p50", quantile(pass.write_us, 0.5));
  ledger.set("exp.sink.write_us.p90", quantile(pass.write_us, 0.9));
  ledger.set("exp.sink.records", static_cast<double>(pass.write_us.size()));
  ledger.set("exp.sink.bytes", static_cast<double>(pass.sink_bytes));
  ledger.set("exp.snapshot.save_us.p50", quantile(pass.save_us, 0.5));
  ledger.set("exp.snapshot.save_us.p90", quantile(pass.save_us, 0.9));
  ledger.set("exp.snapshot.saves", static_cast<double>(pass.save_us.size()));
  ledger.set("exp.snapshot.bytes", static_cast<double>(pass.snapshot_bytes));
  ledger.set("exp.checkpoint.load_s", pass.load_s);

  if (is_durable) {
    probe_leases(scenario, spec, ledger, outcome);
    ledger.set("fleet.batch_idle_frac",
               batch_idle_frac(scenario, spec, pass.replicate_s));
  }

  // Routing probe on the largest routed graph the sweep builds.
  const gg::exp::Cell* routed = nullptr;
  for (const gg::exp::Cell& cell : scenario.cells) {
    if (cell.kind != ProtocolKind::kBoydPairwise &&
        (routed == nullptr || cell.n > routed->n)) {
      routed = &cell;
    }
  }
  if (routed != nullptr) {
    gg::Rng rng(gg::derive_seed(spec.seed, routed->n));
    const auto graph = gg::graph::GeometricGraph::sample(
        routed->n, routed->radius_multiplier, rng);
    graph.ensure_routing_mirror();
    record_graph_sizes(graph, ledger);
    probe_routing(graph, spec.seed, spec.tiny ? 256 : 8192, ledger);
  }
  probe_tick_protocols(scenario, spec.seed, ledger);

  if (!spec.trace_out.empty()) {
    gg::obs::write_chrome_trace_file(spec.trace_out, gg::obs::snapshot(),
                                     "e2e_bench " + spec.workload);
  }
  gg::obs::set_enabled(false);
}

}  // namespace

void run_sweep_workload(const RunSpec& spec, Ledger& ledger,
                        Outcome& outcome) {
  if (spec.trace) {
    traced_run(spec, ledger, outcome);
    return;
  }
  // An untimed warm-up repetition at seed index 0, then the timed ones:
  // repetition i sweeps master seed rep_seed(i), so one run covers
  // several input draws, and the last repeats seed index 0, whose CSV
  // must match the warm-up's byte for byte.
  const auto reps = static_cast<std::size_t>(std::max(
      3.0, std::ceil(spec.seconds / nominal_rep_seconds(spec.workload))));
  const Rep warm_up =
      sweep_rep(spec, rep_seed(spec, 0), "warm-up", true, false, outcome);
  check_replicates(warm_up.summary, outcome);
  const std::string first_csv = csv_of(warm_up.summary);
  // High-water after one repetition: later repetitions in this process
  // say nothing about a user's single run.
  const double rss_mb = static_cast<double>(gg::obs::max_rss_kb()) / 1024.0;
  // Extra set-up samples follow each timed repetition, so that they
  // spread over the whole run.
  const std::size_t extra_setups = (kSetupSamples + reps - 1) / reps - 1;
  std::vector<double> setup, wall, cpu;
  for (std::size_t i = 1; i <= reps; ++i) {
    const std::uint64_t master_seed = rep_seed(spec, i < reps ? i : 0);
    const std::string tag = "rep" + std::to_string(i);
    const Rep rep = sweep_rep(spec, master_seed, tag, true, false, outcome);
    setup.push_back(rep.setup_s);
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
    check_replicates(rep.summary, outcome);
    if (i == reps && csv_of(rep.summary) != first_csv) {
      outcome.gate_failed("repeated seed: CSV differs from the warm-up");
    }
    for (std::size_t k = 0; k < extra_setups; ++k) {
      setup.push_back(sweep_rep(spec, master_seed,
                                tag + "-setup" + std::to_string(k), false,
                                false, outcome)
                          .setup_s);
    }
  }

  if (spec.workload == "sweep-durable") {
    // The merged fleet CSV must equal a plain Runner run of the cells.
    gg::exp::RunnerOptions options;
    options.threads = spec.threads;
    const std::string plain = csv_of(gg::exp::Runner(options).run(
        make_scenario(spec, rep_seed(spec, 0))));
    if (plain != first_csv) {
      outcome.gate_failed("merged fleet CSV differs from a plain run");
    }
  }

  // Other tenants of a shared host only ever add time, in bursts that
  // span whole repetitions: the fastest repetition is the run's estimate.
  ledger.set("wall_s", quantile(wall, 0.0));
  ledger.set("setup_s", median(setup));
  ledger.set("cpu_s", quantile(cpu, 0.0));
  ledger.set("peak_rss_mb", rss_mb);
}

}  // namespace e2e
