#include "exp/sweep_cli.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "exp/sink.hpp"
#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "fleet/status.hpp"
#include "fleet/worker.hpp"
#include "obs/heartbeat.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "support/durable_file.hpp"
#include "support/logging.hpp"
#include "support/string_util.hpp"

namespace geogossip::exp {

namespace {

/// True when both paths name the same file on disk — resolved through
/// the filesystem, so "./x" vs "x", relative vs absolute spellings and
/// symlinks all count (a raw string compare here would let a resume
/// TRUNCATE its own checkpoint).
bool same_file(const std::string& a, const std::string& b) {
  if (a == b) return true;
  std::error_code ec;
  const auto ca = std::filesystem::weakly_canonical(a, ec);
  if (ec) return false;
  const auto cb = std::filesystem::weakly_canonical(b, ec);
  if (ec) return false;
  return ca == cb;
}

// Checkpoint anomalies go through the leveled logger, not bare stderr:
// unattended sweeps read these from piped logs, where the timestamp and
// severity prefix is what makes them correlatable with heartbeat files.
void print_checkpoint_warnings(const CheckpointStats& stats) {
  if (stats.malformed > 0) {
    log_warn("resume: skipped ", stats.malformed,
             " malformed line(s) — those replicates will re-run");
  }
  if (stats.foreign > 0) {
    log_warn("resume: ignored ", stats.foreign,
             " record(s) from another (scenario, master_seed)");
  }
  if (stats.duplicate > 0) {
    log_warn("resume: collapsed ", stats.duplicate,
             " duplicate record(s)");
  }
  if (stats.torn_tail) {
    log_warn("resume: tolerated a torn final line (killed writer)");
  }
}

/// Parses "--heartbeat=FILE,SECS" (",SECS" optional; split on the LAST
/// comma so paths containing commas still work when an interval follows).
bool parse_heartbeat_spec(const std::string& spec, std::string* path,
                          double* interval_seconds) {
  *path = spec;
  *interval_seconds = 5.0;
  const std::size_t comma = spec.rfind(',');
  if (comma != std::string::npos) {
    try {
      const double secs = parse_double(spec.substr(comma + 1));
      if (secs > 0.0) {
        *path = spec.substr(0, comma);
        *interval_seconds = secs;
      }
      // Non-positive interval: treat the whole spec as a path — but a
      // parsed-yet-bogus interval is more likely a typo, reject it.
      if (secs <= 0.0) {
        std::cerr << "--heartbeat=" << spec
                  << ": interval must be positive seconds\n";
        return false;
      }
    } catch (const ArgumentError&) {
      // No numeric suffix: the comma belongs to the path.
    }
  }
  if (path->empty()) {
    std::cerr << "--heartbeat needs a file path\n";
    return false;
  }
  return true;
}

/// Parses "--snapshot-every=N t|s": "20000t" = every 20000 engine steps
/// (Poisson ticks; top-level rounds for the round kinds), "30s" or a bare
/// "30" = every 30 wall-clock seconds.
bool parse_snapshot_every(const std::string& spec, std::uint64_t* ticks,
                          double* seconds) {
  *ticks = 0;
  *seconds = 0.0;
  if (spec.empty()) return true;
  std::string body = spec;
  char unit = 's';
  const char last = body.back();
  if (last == 't' || last == 's') {
    unit = last;
    body.pop_back();
  }
  try {
    if (unit == 't') {
      const std::int64_t value = parse_int(body);
      if (value <= 0) throw ArgumentError("non-positive");
      *ticks = static_cast<std::uint64_t>(value);
    } else {
      const double value = parse_double(body);
      if (value <= 0.0) throw ArgumentError("non-positive");
      *seconds = value;
    }
    return true;
  } catch (const ArgumentError&) {
    std::cerr << "--snapshot-every=" << spec
              << ": expected a positive count with a t (ticks) or s "
                 "(seconds) suffix, e.g. 20000t or 30s\n";
    return false;
  }
}

/// Throws ArgumentError unless `path` (when set) can be opened for
/// writing.  The probe appends nothing to an existing file and removes a
/// file it created.
void require_writable(const std::string& path, const char* flag) {
  if (path.empty()) return;
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  {
    std::ofstream probe(path, std::ios::app);
    if (!probe.is_open()) {
      throw ArgumentError(std::string(flag) + "=" + path +
                          ": cannot open the file for writing");
    }
  }
  if (!existed) std::filesystem::remove(path, ec);
}

/// Default fleet worker id: "w<pid>-<hex>".  The pid alone collides when
/// two hosts share the fleet filesystem; the random suffix (timing-only
/// randomness — never from experiment seed streams) breaks the tie.
std::string generated_worker_id() {
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  std::random_device rd;
  const unsigned suffix = rd() & 0xFFFFu;
  char hex[8];
  std::snprintf(hex, sizeof(hex), "%04x", suffix);
  std::string id = "w";
  id += std::to_string(pid);
  id += '-';
  id += hex;
  return id;
}

}  // namespace

SweepCli::SweepCli(const std::string& program, const std::string& summary)
    : parser_(program, summary), program_(program) {
  parser_.add_flag("threads", &threads_flag_,
                   "worker threads (0 = hardware concurrency)");
  parser_.add_flag("replicates", &replicates_flag_,
                   "override the scenario's replicate count (0 = keep)");
  parser_.add_flag("csv", &csv_path_, "write per-cell results to this CSV");
  parser_.add_flag("json", &json_path_,
                   "write per-cell results to this JSON-lines file");
  parser_.add_flag("json-replicates", &json_replicates_path_,
                   "stream one JSON-lines record per finished replicate to "
                   "this file (flushed per record; interrupted sweeps keep "
                   "partial results and --resume picks them back up)");
  parser_.add_flag("resume", &resume_spec_,
                   "comma-separated replicate-record files from earlier "
                   "(killed) runs of this scenario; completed replicates "
                   "are skipped and re-ingested.  Resuming into "
                   "the same --json-replicates path appends only new records");
  parser_.add_flag("mem-budget", &mem_budget_gb_,
                   "cap concurrent replicates by their memory hints to this "
                   "many GiB (0 = no cap; XL scenarios carry hints)");
  parser_.add_flag("trace", &trace_path_,
                   "enable telemetry and write a Chrome/Perfetto trace "
                   "(chrome://tracing or ui.perfetto.dev) of the sweep to "
                   "this file (a fleet worker appends .<worker>)");
  parser_.add_flag("heartbeat", &heartbeat_spec_,
                   "write a heartbeat JSONL file for unattended runs: "
                   "FILE[,SECS] (default every 5s; torn-write safe via "
                   "rename, so every line always parses)");
  parser_.add_flag("log-level", &log_level_,
                   "diagnostic verbosity: debug|info|warn|error|off "
                   "(default warn)");
  parser_.add_flag("snapshot-dir", &snapshot_dir_,
                   "directory for durable mid-replicate snapshots: long "
                   "replicates periodically persist their full trajectory "
                   "state (torn-write safe), and a re-run with the same "
                   "flags restores each interrupted replicate and continues "
                   "it bit-identically");
  parser_.add_flag("snapshot-every", &snapshot_every_spec_,
                   "snapshot cadence: Nt = every N engine steps (Poisson "
                   "ticks; top-level rounds for affine-1level/affine-multi), "
                   "Ns or bare N = every N wall-clock seconds (default 30s "
                   "when --snapshot-dir is set)");
  parser_.add_flag("fleet-dir", &fleet_dir_,
                   "join a fleet coordinated through this shared directory: "
                   "workers lease batches via atomic renames, renew a TTL "
                   "while running, and reclaim expired leases of dead "
                   "workers (resuming their mid-replicate snapshots).  "
                   "Owns the output/resume/snapshot/heartbeat paths, so "
                   "those flags conflict with it");
  parser_.add_flag("fleet-batches", &fleet_batches_flag_,
                   "batch count B when founding the fleet (batch b runs as "
                   "shard b/B); must match the existing plan when joining. "
                   "0 = adopt the plan already in --fleet-dir");
  parser_.add_flag("fleet-ttl", &fleet_ttl_seconds_,
                   "lease TTL in seconds (renewed every ttl/3); a lease "
                   "silent past its TTL is reclaimed by any worker "
                   "(default 30)");
  parser_.add_flag("fleet-worker", &fleet_worker_,
                   "stable worker id ([A-Za-z0-9_-]; default: generated "
                   "from pid + random suffix).  Reusing a dead worker's id "
                   "is safe; sharing one between LIVE workers is not");
  parser_.add_flag("fleet-max-batches", &fleet_max_batches_flag_,
                   "stop after completing this many batches (0 = run until "
                   "the fleet is complete) — for preemptible or "
                   "time-boxed workers");
  parser_.add_flag("fleet-merge", &fleet_merge_,
                   "run nothing: print the --fleet-dir board and check "
                   "its invariants; on a complete, clean fleet fold every "
                   "record file, require full coverage, and emit the "
                   "merged summaries (--csv/--json) and records "
                   "(--json-replicates) — byte-identical to an "
                   "uninterrupted single-process sweep");
}

std::optional<int> SweepCli::parse(int argc, char** argv) {
  const ParseResult parsed = parser_.parse(argc, argv);
  if (parsed != ParseResult::kOk) return parse_exit_code(parsed);

  try {
    LogConfig::set_level(parse_log_level(log_level_));
  } catch (const ArgumentError& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }

  if (mem_budget_gb_ < 0.0) {
    std::cerr << "--mem-budget must be >= 0\n";
    return 1;
  }
  try {
    threads_ = checked_threads(threads_flag_);
  } catch (const ArgumentError& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
  if (replicates_flag_ < 0) {
    std::cerr << "--replicates must be >= 0\n";
    return 1;
  }
  if (!heartbeat_spec_.empty() &&
      !parse_heartbeat_spec(heartbeat_spec_, &heartbeat_path_,
                            &heartbeat_interval_seconds_)) {
    return 1;
  }
  if (!parse_snapshot_every(snapshot_every_spec_, &snapshot_every_ticks_,
                            &snapshot_every_seconds_)) {
    return 1;
  }
  if (snapshot_dir_.empty() && fleet_dir_.empty() &&
      !snapshot_every_spec_.empty()) {
    std::cerr << "--snapshot-every needs --snapshot-dir (or --fleet-dir)\n";
    return 1;
  }
  if (!snapshot_dir_.empty() && snapshot_every_ticks_ == 0 &&
      snapshot_every_seconds_ == 0.0) {
    snapshot_every_seconds_ = 30.0;  // documented default cadence
  }

  if (fleet_merge_ && fleet_dir_.empty()) {
    std::cerr << "--fleet-merge needs --fleet-dir\n";
    return 1;
  }
  if (fleet_merge_ && !trace_path_.empty()) {
    std::cerr << "--fleet-merge runs nothing: drop --trace\n";
    return 1;
  }
  if (!fleet_dir_.empty()) {
    // The fleet directory owns batching, resume, records, snapshots and
    // heartbeats; accepting these flags alongside it would silently
    // split the run's durable state across two layouts.
    const auto conflict = [](const char* flag) {
      std::cerr << flag << " conflicts with --fleet-dir: the fleet "
                   "directory owns that concern (see README \"Fleet "
                   "mode\")\n";
      return 1;
    };
    if (!resume_spec_.empty()) return conflict("--resume");
    if (!snapshot_dir_.empty()) return conflict("--snapshot-dir");
    if (!heartbeat_spec_.empty()) return conflict("--heartbeat");
    if (!fleet_merge_) {
      // Worker mode streams records into the fleet directory; summaries
      // and the merged record file come from --fleet-merge afterwards.
      if (!json_replicates_path_.empty()) {
        return conflict("--json-replicates (merge emits it)");
      }
      if (!csv_path_.empty()) return conflict("--csv (merge emits it)");
      if (!json_path_.empty()) return conflict("--json (merge emits it)");
    }
    if (fleet_batches_flag_ < 0 || fleet_batches_flag_ > 0xFFFFFFFFll) {
      std::cerr << "--fleet-batches must be in [0, 2^32)\n";
      return 1;
    }
    if (fleet_ttl_seconds_ <= 0.0) {
      std::cerr << "--fleet-ttl must be positive seconds\n";
      return 1;
    }
    if (fleet_max_batches_flag_ < 0) {
      std::cerr << "--fleet-max-batches must be >= 0\n";
      return 1;
    }
    if (fleet_worker_.empty()) {
      fleet_worker_ = generated_worker_id();
    } else if (!fleet::valid_owner(fleet_worker_)) {
      std::cerr << "--fleet-worker must be non-empty [A-Za-z0-9_-]\n";
      return 1;
    }
  }

  if (!trace_path_.empty()) obs::set_enabled(true);
  return std::nullopt;
}

void SweepCli::apply_overrides(Scenario& scenario) const {
  if (replicates_flag_ > 0) {
    scenario.replicates = static_cast<std::uint32_t>(replicates_flag_);
  }
}

RunnerOptions SweepCli::base_options() const {
  RunnerOptions options;
  options.threads = threads_;
  options.memory_budget_bytes = static_cast<std::uint64_t>(
      mem_budget_gb_ * 1024.0 * 1024.0 * 1024.0);
  options.resume_from = checkpoint_;
  return options;
}

int SweepCli::run(Scenario scenario, std::ostream& out) {
  // Misuse the flag checks in parse() cannot see — a missing resume file,
  // an unwritable output, a fleet directory with no plan and no batch
  // count — surfaces as ArgumentError/IoError.  It ends the run with
  // exit 1 and the message, never an abort.
  try {
    return run_checked(std::move(scenario), out);
  } catch (const ArgumentError& error) {
    std::cerr << program_ << ": " << error.what() << "\n";
  } catch (const IoError& error) {
    std::cerr << program_ << ": " << error.what() << "\n";
  }
  return 1;
}

int SweepCli::run_checked(Scenario scenario, std::ostream& out) {
  apply_overrides(scenario);

  if (fleet_mode()) {
    return fleet_merge_ ? run_fleet_merge(scenario, out)
                        : run_fleet_worker(scenario, out);
  }

  // The summary sinks and the trace are written after the sweep: find
  // out now, not hours later, that they cannot be.
  require_writable(csv_path_, "--csv");
  require_writable(json_path_, "--json");
  require_writable(trace_path_, "--trace");

  // Load checkpoints BEFORE any sink opens the replicate path: resuming
  // into the same file must read it completely first.
  bool resume_into_same_file = false;
  if (!resume_spec_.empty()) {
    auto checkpoint = std::make_shared<Checkpoint>(scenario.name,
                                                   scenario.master_seed);
    for (const auto& path : split(resume_spec_, ',')) {
      if (path.empty()) continue;
      checkpoint->load_file(path);
      if (!json_replicates_path_.empty() &&
          same_file(path, json_replicates_path_)) {
        resume_into_same_file = true;
      }
    }
    print_checkpoint_warnings(checkpoint->stats());
    out << "resume: " << checkpoint->size()
        << " completed replicate(s) loaded\n";
    checkpoint_ = std::move(checkpoint);
  }

  RunnerOptions options = base_options();
  options.snapshot_dir = snapshot_dir_;
  options.snapshot_every_ticks = snapshot_every_ticks_;
  options.snapshot_every_seconds = snapshot_every_seconds_;

  std::unique_ptr<JsonLinesSink> replicate_sink;
  if (!json_replicates_path_.empty()) {
    replicate_sink = std::make_unique<JsonLinesSink>(
        json_replicates_path_, resume_into_same_file
                                  ? JsonLinesSink::Mode::kAppend
                                  : JsonLinesSink::Mode::kTruncate);
    JsonLinesSink* sink = replicate_sink.get();
    const std::string scenario_name = scenario.name;
    const std::uint64_t master_seed = scenario.master_seed;
    options.progress = [sink, scenario_name, master_seed](
                           const Cell& cell, std::size_t cell_index,
                           std::uint32_t replicate,
                           const ReplicateResult& result) {
      sink->write_replicate(scenario_name, master_seed, cell, cell_index,
                            replicate, result);
    };
  }

  std::unique_ptr<obs::Heartbeat> heartbeat;
  if (!heartbeat_path_.empty()) {
    obs::Heartbeat::Options hb;
    hb.path = heartbeat_path_;
    hb.interval_seconds = heartbeat_interval_seconds_;
    hb.scenario = scenario.name;
    hb.total_replicates = static_cast<std::uint64_t>(scenario.cells.size()) *
                          scenario.replicates;
    heartbeat = std::make_unique<obs::Heartbeat>(std::move(hb));
    options.heartbeat = heartbeat.get();
  }

  const Runner runner(options);
  summary_ = runner.run(scenario);
  if (heartbeat != nullptr) heartbeat->stop();
  print_summary(out, summary_);

  if (options.memory_budget_bytes > 0 && summary_.peak_rss_kb > 0 &&
      summary_.peak_rss_kb * 1024 > options.memory_budget_bytes) {
    log_warn("peak RSS ", summary_.peak_rss_kb,
             " KiB exceeded --mem-budget (",
             options.memory_budget_bytes / (1024 * 1024), " MiB) — "
             "the scenario's mem hints underestimate its footprint");
  }

  // Export BEFORE any verification re-run the driver may do records more
  // events; the trace describes the primary (parallel) sweep.
  if (!trace_path_.empty()) {
    obs::write_chrome_trace_file(trace_path_, obs::snapshot(),
                                 program_ + " " + scenario.name);
    out << "trace: " << trace_path_ << "\n";
  }

  write_sinks(summary_, csv_path_, json_path_);
  return 0;
}

int SweepCli::run_fleet_worker(const Scenario& scenario, std::ostream& out) {
  fleet::WorkerOptions options;
  options.fleet_dir = fleet_dir_;
  options.worker = fleet_worker_;
  options.ttl_seconds = fleet_ttl_seconds_;
  options.batches = static_cast<std::uint32_t>(fleet_batches_flag_);
  options.threads = threads_;
  options.memory_budget_bytes = static_cast<std::uint64_t>(
      mem_budget_gb_ * 1024.0 * 1024.0 * 1024.0);
  if (snapshot_every_ticks_ > 0 || snapshot_every_seconds_ > 0.0) {
    options.snapshot_every_ticks = snapshot_every_ticks_;
    options.snapshot_every_seconds = snapshot_every_seconds_;
  }
  options.max_batches =
      static_cast<std::uint64_t>(fleet_max_batches_flag_);
  const std::string trace =
      trace_path_.empty() ? "" : trace_path_ + "." + options.worker;
  require_writable(trace, "--trace");

  out << "fleet: worker '" << options.worker << "' joining " << fleet_dir_
      << "\n";
  const fleet::WorkerReport report =
      fleet::run_worker(scenario, options, out);

  if (!trace.empty()) {
    obs::write_chrome_trace_file(trace, obs::snapshot(),
                                 program_ + " " + scenario.name);
    out << "trace: " << trace << "\n";
  }
  // A worker that stopped early (--fleet-max-batches) still succeeded;
  // the fleet's overall completion lives in the done/ markers.
  (void)report;
  return 0;
}

int SweepCli::run_fleet_merge(const Scenario& scenario, std::ostream& out) {
  const fleet::FleetStatus status = fleet::inspect(fleet_dir_);
  // batches = 0: adopt the plan's batch count, validate everything else.
  fleet::validate_plan_match(status.plan, fleet::plan_for(scenario, 0));
  fleet::print_status(out, status);
  const std::vector<std::string> problems =
      fleet::violations(status, fleet::LeaseStore::now_unix_ms());
  for (const std::string& problem : problems) {
    std::cerr << program_ << ": fleet: " << problem << "\n";
  }
  if (!problems.empty()) {
    if (status.complete()) {
      std::cerr << program_ << ": run one worker on " << fleet_dir_
                << " to sweep the leases, tickets and snapshot temps a "
                   "killed finisher left; delete any other temp debris by "
                   "hand\n";
    }
    return 1;
  }
  if (!status.complete()) {
    std::cerr << program_ << ": --fleet-merge: the fleet is not complete "
                 "(batches still to run); merge once every batch is done\n";
    return 1;
  }

  require_writable(csv_path_, "--csv");
  require_writable(json_path_, "--json");
  require_writable(json_replicates_path_, "--json-replicates");
  auto checkpoint =
      std::make_shared<Checkpoint>(scenario.name, scenario.master_seed);
  for (const std::string& path : fleet::all_record_files(fleet_dir_)) {
    checkpoint->load_file(path);
  }
  print_checkpoint_warnings(checkpoint->stats());
  out << "merge: " << checkpoint->size() << " replicate(s) loaded\n";

  // The records must be exactly the scenario's grid: a hole is unfinished
  // work, and a record outside it (a batch run with another --replicates,
  // say) means the inputs are not this sweep.
  std::size_t outside = 0;
  for (const auto& [key, result] : checkpoint->records()) {
    if (key.first >= scenario.cells.size() ||
        key.second >= scenario.replicates) {
      ++outside;
    }
  }
  const std::size_t tasks = scenario.cells.size() * scenario.replicates;
  const std::size_t missing = tasks - (checkpoint->size() - outside);
  if (outside > 0) {
    std::cerr << program_ << ": merge: " << outside
              << " record(s) outside the " << scenario.cells.size() << "x"
              << scenario.replicates << " (cell, replicate) grid of '"
              << scenario.name << "' — not this sweep's records\n";
    return 1;
  }
  if (missing > 0) {
    std::cerr << program_ << ": merge: " << missing << " of " << tasks
              << " replicates missing from the fleet's record files\n";
    return 1;
  }

  // Aggregate through the SAME Runner path an uninterrupted run uses —
  // every task is re-ingested (none executes), and index-order
  // aggregation makes the merged summaries byte-identical to a
  // single-process sweep.
  checkpoint_ = std::move(checkpoint);
  summary_ = Runner(base_options()).run(scenario);
  print_summary(out, summary_);
  if (!json_replicates_path_.empty()) {
    // The canonical merged record file: one record per replicate in
    // (cell_index, replicate) order, committed whole.
    std::ostringstream merged;
    JsonLinesSink sink(merged);
    for (const auto& [key, result] : checkpoint_->records()) {
      sink.write_replicate(scenario.name, scenario.master_seed,
                           scenario.cells[key.first], key.first, key.second,
                           result);
    }
    std::string error;
    if (!write_durable_file(json_replicates_path_, merged.str(), &error)) {
      throw IoError("--json-replicates: " + error);
    }
  }
  write_sinks(summary_, csv_path_, json_path_);
  return 0;
}

}  // namespace geogossip::exp
