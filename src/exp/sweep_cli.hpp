// Shared sweep-harness command line for every experiment driver.
//
// parallel_sweep and the E1-E11 bench mains all run Scenarios through the
// same machinery — thread pool, resume checkpoints, streaming replicate
// records, heartbeat files, telemetry traces, durable mid-replicate
// snapshots and the fleet — and before SweepCli each driver re-registered
// its own subset of the flags, so only parallel_sweep could actually
// resume.  SweepCli owns the harness flag set once; a driver
// registers its experiment-specific flags on parser(), builds its
// Scenario, and delegates execution:
//
//   gg::exp::SweepCli cli("tab_e5_scaling", "E5: scaling table");
//   cli.parser().add_flag("eps", &eps, "accuracy target");
//   if (const auto exit = cli.parse(argc, argv)) return *exit;
//   ... build scenario ...
//   if (const int exit = cli.run(std::move(scenario), std::cout)) return exit;
//   const auto& summary = cli.summary();   // post-run analysis
#ifndef GEOGOSSIP_EXP_SWEEP_CLI_HPP
#define GEOGOSSIP_EXP_SWEEP_CLI_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "support/cli.hpp"

namespace geogossip::exp {

class SweepCli {
 public:
  SweepCli(const std::string& program, const std::string& summary);

  /// The underlying parser; register driver-specific flags here BEFORE
  /// parse().  Harness flag names (--threads, --csv, ...) are taken.
  ArgParser& parser() noexcept { return parser_; }

  /// Parses argv and validates the harness flags (heartbeat spec,
  /// snapshot cadence, flag combinations).  Returns the process exit
  /// code when the run should stop here (--help, malformed flags);
  /// std::nullopt to continue.  Also applies --log-level and enables
  /// telemetry when --trace is given.
  std::optional<int> parse(int argc, char** argv);

  /// Applies the generic scenario overrides (--replicates).  run() calls
  /// this itself; exposed for drivers that size work before run().
  void apply_overrides(Scenario& scenario) const;

  /// Executes `scenario` with the full harness wiring — resume-checkpoint
  /// loading, streaming replicate records, heartbeat, mid-replicate
  /// snapshots, or a fleet worker / the --fleet-merge fold — prints the summary table to `out`,
  /// exports the telemetry trace and writes the CSV/JSON sinks.  Returns
  /// the process exit code (0 on success); the aggregates stay available
  /// via summary().  Misuse found only here — a missing --resume file, an
  /// unwritable output path (checked before any work starts), a fleet
  /// directory with neither a plan nor --fleet-batches, --fleet-merge on
  /// a directory with no plan — prints the reason and returns 1.
  int run(Scenario scenario, std::ostream& out);

  /// Aggregates of the last successful run().
  const SweepSummary& summary() const noexcept { return summary_; }

  /// Runner configuration as parsed (threads, memory budget, the loaded
  /// resume checkpoint) WITHOUT sinks/snapshots — the
  /// base for --compare style verification re-runs.  The checkpoint field
  /// is populated by run().
  RunnerOptions base_options() const;

  /// True when parse() selected fleet mode (--fleet-dir): run() will
  /// join the fleet as a worker (or merge it with --fleet-merge) instead
  /// of executing the scenario directly.
  bool fleet_mode() const noexcept { return !fleet_dir_.empty(); }

 private:
  int run_checked(Scenario scenario, std::ostream& out);
  int run_fleet_worker(const Scenario& scenario, std::ostream& out);
  /// Prints the fleet board (fleet/status.hpp) and lists every violated
  /// fleet invariant on stderr.  Only a complete fleet with no violation
  /// is merged: every record file is folded, the records must cover
  /// exactly the scenario's (cell, replicate) grid — a hole or a record
  /// outside it prints why and returns 1 — and they are aggregated
  /// through the Runner (nothing runs).  Writes the summaries and, with
  /// --json-replicates, the canonical merged record file: every record
  /// once, in (cell_index, replicate) order.
  int run_fleet_merge(const Scenario& scenario, std::ostream& out);

  ArgParser parser_;
  std::string program_;
  SweepSummary summary_;

  // Raw flag storage (parse() validates into the typed fields below).
  std::int64_t threads_flag_ = 0;
  std::int64_t replicates_flag_ = 0;
  std::string csv_path_;
  std::string json_path_;
  std::string json_replicates_path_;
  std::string resume_spec_;
  double mem_budget_gb_ = 0.0;
  std::string trace_path_;
  std::string heartbeat_spec_;
  std::string log_level_ = "warn";
  std::string snapshot_dir_;
  std::string snapshot_every_spec_;
  std::string fleet_dir_;
  std::int64_t fleet_batches_flag_ = 0;
  double fleet_ttl_seconds_ = 30.0;
  std::string fleet_worker_;
  std::int64_t fleet_max_batches_flag_ = 0;
  bool fleet_merge_ = false;

  unsigned threads_ = 0;
  std::uint64_t memory_budget_bytes_ = 0;
  std::string heartbeat_path_;
  double heartbeat_interval_seconds_ = 5.0;
  std::uint64_t snapshot_every_ticks_ = 0;
  double snapshot_every_seconds_ = 0.0;
  std::shared_ptr<const Checkpoint> checkpoint_;
};

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_SWEEP_CLI_HPP
