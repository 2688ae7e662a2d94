#include "exp/runner.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <utility>

#include "exp/snapshot_store.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/heartbeat.hpp"
#include "obs/memory.hpp"
#include "obs/telemetry.hpp"
#include "sim/field.hpp"
#include "stats/summary.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace geogossip::exp {

namespace {

std::vector<double> make_initial_field(const Cell& cell, Rng& rng) {
  auto x0 = sim::gaussian_field(cell.n, rng);
  if (cell.field == CellField::kSpikedGaussian) {
    x0[rng.below(cell.n)] += std::sqrt(static_cast<double>(cell.n));
  }
  return x0;
}

}  // namespace

ReplicateResult run_replicate(const Cell& cell, std::uint64_t seed) {
  return run_replicate(cell, seed, sim::CheckpointPolicy{},
                       std::string_view{});
}

ReplicateResult run_replicate(const Cell& cell, std::uint64_t seed,
                              const sim::CheckpointPolicy& checkpoints,
                              std::string_view resume) {
  GG_CHECK_ARG(cell.n >= 2, "run_replicate: cell.n >= 2");
  if (cell.trial) {
    // Probe trials: short, self-contained measurements with no engine
    // state worth persisting — snapshots do not apply.
    ReplicateResult result = cell.trial(cell, seed);
    result.seed = seed;
    return result;
  }
  // Everything up to the trial is a deterministic function of `seed`, so a
  // restored trial reconstructs the identical graph, field and protocol
  // configuration before the snapshot payload overwrites the trajectory.
  Rng rng(seed);
  const auto graph =
      graph::GeometricGraph::sample(cell.n, cell.radius_multiplier, rng);
  auto x0 = make_initial_field(cell, rng);
  sim::center_and_normalize(x0);

  const auto outcome = core::run_protocol_trial(
      cell.kind, graph, x0, rng, cell.options, checkpoints, resume);

  ReplicateResult result;
  result.seed = seed;
  result.converged = outcome.converged;
  result.final_error = outcome.final_error;
  result.sum_drift = outcome.sum_drift;
  result.transmissions = outcome.transmissions;
  result.far_exchanges = outcome.far_exchanges;
  result.near_exchanges = outcome.near_exchanges;
  return result;
}

void MemoryGate::acquire(std::uint64_t hint) {
  if (budget_ == 0 || hint == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [&] { return in_flight_ == 0 || in_flight_ + hint <= budget_; });
  in_flight_ += hint;
}

void MemoryGate::release(std::uint64_t hint) {
  if (budget_ == 0 || hint == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ -= hint;
  }
  cv_.notify_all();
}

SweepShard::SweepShard(const Scenario& scenario, RunnerOptions options)
    : scenario_(scenario), options_(std::move(options)) {
  GG_CHECK_ARG(!scenario.cells.empty(), "Runner::run: scenario has cells");
  GG_CHECK_ARG(scenario.replicates >= 1, "Runner::run: replicates >= 1");
  GG_CHECK_ARG(options_.shard_count >= 1,
               "Runner::run: shard_count >= 1");
  GG_CHECK_ARG(options_.shard_index < options_.shard_count,
               "Runner::run: shard_index < shard_count");
  const Checkpoint* resume = options_.resume_from.get();
  if (resume != nullptr) {
    GG_CHECK_ARG(resume->scenario() == scenario.name &&
                     resume->master_seed() == scenario.master_seed,
                 "Runner::run: resume checkpoint is for a different "
                 "(scenario, master_seed)");
  }

  // Mid-replicate snapshot store (see RunnerOptions::snapshot_dir).  Tasks
  // own disjoint slots, so workers never touch the same file.
  if (!options_.snapshot_dir.empty()) {
    store_ = std::make_unique<SnapshotStore>(
        options_.snapshot_dir, scenario.name, scenario.master_seed);
  }

  const std::size_t cell_count = scenario.cells.size();
  const std::uint32_t replicates = scenario.replicates;
  const std::size_t task_count = cell_count * replicates;
  results_.resize(task_count);
  have_.assign(task_count, 0);

  // Partition first, then subtract completed work: a shard resumed from
  // the merged k-shard file still re-runs only its own missing tasks.
  for (std::size_t task = 0; task < task_count; ++task) {
    if (!shard_owns(options_.shard_index, options_.shard_count, task)) {
      continue;
    }
    const std::size_t cell_index = task / replicates;
    const auto replicate = static_cast<std::uint32_t>(task % replicates);
    if (resume != nullptr) {
      if (const ReplicateResult* done = resume->find(cell_index, replicate)) {
        const Cell& cell = scenario.cells[cell_index];
        const std::size_t stream = cell.seed_stream == kAutoSeedStream
                                       ? cell_index
                                       : cell.seed_stream;
        const std::uint64_t expected =
            replicate_seed(scenario.master_seed, stream, replicate);
        GG_CHECK_ARG(
            done->seed == expected,
            "Runner::run: resume record seed mismatch at cell_index " +
                std::to_string(cell_index) + " replicate " +
                std::to_string(replicate) +
                " — checkpoint from a different scenario definition?");
        results_[task] = *done;
        have_[task] = 1;
        ++resumed_;
        // The record is durable; a stale mid-replicate snapshot for the
        // slot would only be reloaded pointlessly on the next resume.
        if (store_ != nullptr) store_->remove(cell_index, replicate);
        continue;
      }
    }
    pending_.push_back(task);
  }
  if (resumed_ > 0) {
    static const auto c_reingested = obs::counter("runner.resume_reingested");
    obs::add(c_reingested, resumed_);
    if (options_.heartbeat != nullptr) {
      options_.heartbeat->add_completed(resumed_);
    }
  }
  if (obs::enabled()) task_times_.resize(pending_.size());
}

SweepShard::~SweepShard() = default;

void SweepShard::run(std::size_t index, MemoryGate& gate) {
  const std::size_t task = pending_[index];
  const std::uint32_t replicates = scenario_.replicates;
  const std::size_t cell_index = task / replicates;
  const auto replicate = static_cast<std::uint32_t>(task % replicates);
  const Cell& cell = scenario_.cells[cell_index];
  const std::size_t stream =
      cell.seed_stream == kAutoSeedStream ? cell_index : cell.seed_stream;
  if (options_.heartbeat != nullptr) {
    options_.heartbeat->note_start(static_cast<std::int64_t>(cell_index),
                                   replicate);
  }
  const bool trace_task = !task_times_.empty();
  gate.acquire(cell.mem_hint_bytes);
  try {
    const std::uint64_t seed =
        replicate_seed(scenario_.master_seed, stream, replicate);
    // Restore-or-fresh + cadence wiring for the durable snapshot slot.
    // try_load happens inside the task (not the partition loop): it
    // reads a payload proportional to the cell's n, and the pool
    // parallelizes that the same way it parallelizes the replicates.
    std::string resume_payload;
    sim::CheckpointPolicy policy;
    if (store_ != nullptr) {
      if (auto snapshot = store_->try_load(cell_index, replicate, seed)) {
        resume_payload = std::move(snapshot->payload);
        static const auto c_restored =
            obs::counter("runner.snapshot_restored");
        obs::add(c_restored);
      }
      policy.every_ticks = options_.snapshot_every_ticks;
      policy.every_seconds = options_.snapshot_every_seconds;
      SnapshotStore* slot_store = store_.get();
      policy.persist = [slot_store, cell_index, replicate, seed](
                           std::string_view payload, std::uint64_t ticks) {
        slot_store->save(cell_index, replicate, seed, ticks, payload);
      };
    }
    // Envelope timestamps bracket the replicate Span's lifetime (not
    // the reverse), so the derived per-cell envelope always encloses
    // its replicates' spans in the exported trace.
    if (trace_task) task_times_[index][0] = obs::now_ns();
    {
      obs::Span span("replicate", "cell",
                     static_cast<std::int64_t>(cell_index), "replicate",
                     replicate);
      results_[task] = run_replicate(cell, seed, policy, resume_payload);
    }
    if (trace_task) task_times_[index][1] = obs::now_ns();
  } catch (...) {
    gate.release(cell.mem_hint_bytes);
    throw;
  }
  gate.release(cell.mem_hint_bytes);
  if (options_.progress) {
    // The callback runs BEFORE the task is marked held: a sink that
    // throws (disk full, failed stream) keeps the replicate out of the
    // completed set, so a crash can never report work the checkpoint
    // file does not hold.
    std::lock_guard<std::mutex> lock(progress_mu_);
    options_.progress(cell, cell_index, replicate, results_[task]);
  }
  have_[task] = 1;
  // Snapshot cleanup only AFTER the result is held (and, when a progress
  // sink is wired, persisted): a crash between the progress throw above
  // and here keeps the snapshot, so the replicate resumes instead of
  // restarting.
  if (store_ != nullptr) store_->remove(cell_index, replicate);
  if (options_.heartbeat != nullptr) options_.heartbeat->note_done();
}

void SweepShard::trace_cells() const {
  // Envelope spans: one per cell on the synthetic lane, spanning the
  // min..max recorded times of its executed replicates.  Work-stealing
  // interleaves cells across workers, so real RAII spans cannot express
  // "the cell" — the envelope is derived after the tasks ran instead.
  if (task_times_.empty()) return;
  const std::uint32_t replicates = scenario_.replicates;
  for (std::size_t c = 0; c < scenario_.cells.size(); ++c) {
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (std::size_t index = 0; index < pending_.size(); ++index) {
      if (pending_[index] / replicates != c) continue;
      if (task_times_[index][1] == 0) continue;  // task threw / never ran
      lo = std::min(lo, task_times_[index][0]);
      hi = std::max(hi, task_times_[index][1]);
    }
    if (hi == 0) continue;  // no executed replicates for this cell
    obs::record_span_on("cell", lo, hi, "cell", static_cast<std::int64_t>(c),
                        "n", static_cast<std::int64_t>(scenario_.cells[c].n));
  }
}

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {}

SweepSummary Runner::run(const Scenario& scenario) const {
  SweepShard shard(scenario, options_);
  obs::Span sweep_span("sweep", "cells",
                       static_cast<std::int64_t>(scenario.cells.size()),
                       "replicates",
                       static_cast<std::int64_t>(scenario.replicates));
  ThreadPool pool(options_.threads);
  MemoryGate gate(options_.memory_budget_bytes);
  const auto start = std::chrono::steady_clock::now();
  pool.run(shard.pending(),
           [&](std::size_t index) { shard.run(index, gate); });
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  shard.trace_cells();
  return shard.summarize(pool.thread_count(), elapsed.count());
}

SweepSummary SweepShard::summarize(unsigned threads,
                                   double wall_seconds) const {
  const std::size_t cell_count = scenario_.cells.size();
  const std::uint32_t replicates = scenario_.replicates;
  SweepSummary summary;
  summary.scenario = scenario_.name;
  summary.replicates = replicates;
  summary.master_seed = scenario_.master_seed;
  summary.threads = threads;
  summary.wall_seconds = wall_seconds;
  summary.resumed_replicates = resumed_;
  summary.executed_replicates = pending_.size();
  summary.peak_rss_kb = obs::max_rss_kb();
  summary.cells.reserve(cell_count);

  obs::Span aggregate_span("aggregate", "cells",
                           static_cast<std::int64_t>(cell_count));
  // Aggregation runs sequentially in (cell, replicate) index order, so the
  // numbers below cannot depend on how the pool interleaved the tasks —
  // and, because re-ingested results occupy the same index slots they
  // would have been computed into, not on how many of them were resumed.
  for (std::size_t c = 0; c < cell_count; ++c) {
    CellSummary cs;
    cs.cell = scenario_.cells[c];
    cs.cell_index = c;
    cs.replicates = 0;

    stats::Quantiles tx;
    double local = 0.0;
    double long_range = 0.0;
    double control = 0.0;
    double far_near = 0.0;
    std::uint32_t far_near_count = 0;
    std::map<std::string, stats::Quantiles> metric_samples;
    for (std::uint32_t r = 0; r < replicates; ++r) {
      if (!have_[c * replicates + r]) continue;
      ++cs.replicates;
      const ReplicateResult& rr = results_[c * replicates + r];
      if (options_.keep_replicates) cs.raw.push_back(rr);
      for (const auto& [key, value] : rr.metrics) {
        metric_samples[key].push(value);
      }
      if (!rr.converged) continue;
      ++cs.converged;
      const std::uint64_t total = rr.transmissions.total();
      tx.push(static_cast<double>(total));
      if (total > 0) {
        const double inv = 1.0 / static_cast<double>(total);
        local += inv * static_cast<double>(
                           rr.transmissions[sim::TxCategory::kLocal]);
        long_range += inv * static_cast<double>(
                                rr.transmissions[sim::TxCategory::kLongRange]);
        control += inv * static_cast<double>(
                             rr.transmissions[sim::TxCategory::kControl]);
      }
      if (rr.near_exchanges > 0) {
        far_near += static_cast<double>(rr.far_exchanges) /
                    static_cast<double>(rr.near_exchanges);
        ++far_near_count;
      }
    }
    // Denominator: the replicates aggregated HERE (== the scenario's count
    // for a full run, so uninterrupted arithmetic is unchanged; a shard's
    // partial view divides by its own share).
    cs.converged_fraction =
        cs.replicates == 0 ? 0.0
                           : static_cast<double>(cs.converged) /
                                 static_cast<double>(cs.replicates);
    if (tx.count() > 0) {
      cs.median_tx = tx.median();
      cs.q25_tx = tx.quantile(0.25);
      cs.q75_tx = tx.quantile(0.75);
    }
    if (cs.converged > 0) {
      const double inv = 1.0 / static_cast<double>(cs.converged);
      cs.mean_local_share = local * inv;
      cs.mean_long_range_share = long_range * inv;
      cs.mean_control_share = control * inv;
    }
    if (far_near_count > 0) {
      cs.mean_far_near_ratio =
          far_near / static_cast<double>(far_near_count);
    }
    for (auto& [key, samples] : metric_samples) {
      MetricSummary ms;
      ms.count = samples.count();
      ms.mean = samples.mean();
      ms.median = samples.median();
      ms.q95 = samples.quantile(0.95);
      ms.min = samples.min();
      ms.max = samples.max();
      cs.metrics.emplace(key, ms);
    }
    summary.cells.push_back(std::move(cs));
  }
  return summary;
}

double CellSummary::metric_mean(const std::string& key,
                                double fallback) const {
  const auto it = metrics.find(key);
  return it == metrics.end() ? fallback : it->second.mean;
}

namespace {

/// Width-friendly metric rendering across the 1e-6 (TV distances) to 1e5
/// (hop counts) range the probes produce.
std::string format_metric(double value) {
  if (value == 0.0) return "0";
  const double magnitude = std::abs(value);
  if (magnitude >= 1e5 || magnitude < 1e-3) return format_sci(value, 2);
  return format_fixed(value, 3);
}

void print_metrics_table(std::ostream& out, const SweepSummary& summary) {
  const auto keys = metric_key_union(summary);
  if (keys.empty()) return;

  std::vector<std::string> columns{"cell", "n"};
  for (const auto& key : keys) columns.push_back("mean " + key);
  ConsoleTable table(columns);
  table.set_alignment(0, Align::kLeft);
  for (const auto& cs : summary.cells) {
    if (cs.metrics.empty()) continue;
    table.cell(cs.cell.label).cell(format_count(cs.cell.n));
    for (const auto& key : keys) {
      const auto it = cs.metrics.find(key);
      table.cell(it == cs.metrics.end() ? "-"
                                        : format_metric(it->second.mean));
    }
    table.end_row();
  }
  table.print(out);
}

}  // namespace

std::vector<std::string> metric_key_union(const SweepSummary& summary) {
  std::set<std::string> keys;
  for (const auto& cs : summary.cells) {
    for (const auto& [key, ms] : cs.metrics) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

std::vector<std::string> param_key_union(const SweepSummary& summary) {
  std::set<std::string> keys;
  for (const auto& cs : summary.cells) {
    for (const auto& [key, value] : cs.cell.params) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

unsigned checked_threads(std::int64_t threads) {
  GG_CHECK_ARG(threads >= 0, "--threads must be >= 0");
  return static_cast<unsigned>(threads);
}

void print_summary(std::ostream& out, const SweepSummary& summary) {
  bool any_far_near = false;
  bool any_protocol = false;
  for (const auto& cs : summary.cells) {
    if (cs.mean_far_near_ratio > 0.0) any_far_near = true;
    if (!cs.cell.trial) any_protocol = true;
  }

  if (any_protocol) {
    std::vector<std::string> columns{"cell",   "n",   "median tx", "q25",
                                     "q75",    "tx/node", "local%", "lr%",
                                     "ctrl%",  "conv"};
    if (any_far_near) columns.push_back("far/near");
    ConsoleTable table(columns);
    table.set_alignment(0, Align::kLeft);

    for (const auto& cs : summary.cells) {
      if (cs.cell.trial) continue;  // probe cells report via metrics below
      const bool has_tx = cs.converged > 0;
      table.cell(cs.cell.label)
          .cell(format_count(cs.cell.n))
          .cell(has_tx ? format_si(cs.median_tx) : "-")
          .cell(has_tx ? format_si(cs.q25_tx) : "-")
          .cell(has_tx ? format_si(cs.q75_tx) : "-")
          .cell(has_tx
                    ? format_fixed(
                          cs.median_tx / static_cast<double>(cs.cell.n), 1)
                    : "-")
          .cell(has_tx ? format_fixed(100.0 * cs.mean_local_share, 1) : "-")
          .cell(has_tx ? format_fixed(100.0 * cs.mean_long_range_share, 1)
                       : "-")
          .cell(has_tx ? format_fixed(100.0 * cs.mean_control_share, 1)
                       : "-")
          .cell(format_fixed(cs.converged_fraction, 2));
      if (any_far_near) {
        table.cell(cs.mean_far_near_ratio > 0.0
                       ? format_fixed(cs.mean_far_near_ratio, 4)
                       : "-");
      }
      table.end_row();
    }
    table.print(out);
  }
  print_metrics_table(out, summary);
  out << "[" << summary.scenario << "] replicates=" << summary.replicates
      << " seed=" << summary.master_seed << " threads=" << summary.threads
      << " wall=" << format_fixed(summary.wall_seconds, 2) << "s";
  if (summary.resumed_replicates > 0) {
    out << " resumed=" << summary.resumed_replicates
        << " executed=" << summary.executed_replicates;
  }
  if (summary.peak_rss_kb > 0) {
    out << " peak_rss_kb=" << summary.peak_rss_kb;
  }
  out << "\n";
}

}  // namespace geogossip::exp
