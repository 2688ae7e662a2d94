#include "fleet/worker.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "obs/heartbeat.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/durable_file.hpp"
#include "support/logging.hpp"
#include "support/retry.hpp"
#include "support/thread_pool.hpp"

namespace geogossip::fleet {

namespace {

namespace fs = std::filesystem;

/// Background lease renewer: extends the lease every ttl/3 until stopped
/// or the lease is lost.  A lost lease does NOT interrupt the batch —
/// records are idempotent, so finishing and deduplicating beats throwing
/// away compute — but it is counted and logged by LeaseStore.
class LeaseRenewer {
 public:
  LeaseRenewer(const LeaseStore& store, Lease lease)
      : store_(store), lease_(std::move(lease)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~LeaseRenewer() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  bool lost() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lost_;
  }

 private:
  void loop() {
    const auto period = std::chrono::duration<double>(
        lease_.ttl_seconds / 3.0);
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      if (cv_.wait_for(lock, period, [this] { return stopping_; })) break;
      lock.unlock();
      const bool held = store_.renew(lease_);
      lock.lock();
      if (!held) {
        lost_ = true;
        break;  // the file is gone; further renewals cannot help
      }
    }
  }

  const LeaseStore& store_;
  Lease lease_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool lost_ = false;
  std::thread thread_;
};

/// Trace lanes for the fleet_batch spans, one per batch held at once:
/// overlapping batches never share a lane, so each lane nests cleanly.
/// Far above the recording threads' lanes (numbered from 1).
constexpr std::uint32_t kBatchLaneBase = 0xFFFF0000u;

/// One leased batch in flight: runner shard (batch, B) with its own
/// record file, checkpoint fold and lease renewal.
struct HeldBatch {
  Lease lease;
  std::string records;  ///< our record file, fleet-dir-relative
  std::uint32_t lane = 0;
  std::uint64_t start_ns = 0;
  std::unique_ptr<exp::JsonLinesSink> sink;
  std::unique_ptr<exp::SweepShard> shard;
  std::unique_ptr<LeaseRenewer> renewer;
  /// Pending task indices, largest graph first: the longest replicates
  /// start early, so the last batch's tail is short ones.
  std::vector<std::size_t> order;
  std::size_t started = 0;   ///< tasks of `order` handed to the pool
  std::size_t finished = 0;  ///< pending tasks completed
};

/// A worker's whole life on one pool.  A pool thread that finds no
/// unstarted replicate in the batches already held claims (or steals)
/// the next batch, so the next lease is taken while the current batch
/// drains instead of after it.  One thread at a time claims; the others
/// wait for its result.
class Worker {
 public:
  Worker(const exp::Scenario& scenario, const WorkerOptions& options,
         const FleetPlan& plan, const LeaseStore& store,
         obs::Heartbeat& heartbeat, std::ostream& out)
      : scenario_(scenario),
        options_(options),
        plan_(plan),
        store_(store),
        heartbeat_(heartbeat),
        out_(out),
        hb_relative_("hb/" + options.worker + ".jsonl"),
        gate_(options.memory_budget_bytes) {}

  /// Runs until no batch is left to claim and every held batch is
  /// complete.  On a failure — a replicate, a record fold or a done
  /// marker that threw — starts nothing new, lets running replicates
  /// finish, re-queues and releases every held batch, and rethrows.
  WorkerReport run() {
    ThreadPool(options_.threads).drain([this] { return next_task(); });
    if (failure_) {
      abandon_held();
      persist_stats();
      heartbeat_.stop();
      std::rethrow_exception(failure_);
    }
    const std::vector<std::uint32_t> done =
        done_batches(options_.fleet_dir, plan_.batches);
    if (done.size() == plan_.batches) {
      sweep_complete_fleet(done);
      report_.fleet_complete = true;
    }
    return report_;
  }

  /// Commits the stats file from a consistent copy of the report.
  void persist_stats() {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    WorkerReport report;
    {
      std::lock_guard<std::mutex> lock(mu_);
      report = report_;
    }
    write_worker_stats(options_.fleet_dir, options_.worker, report);
  }

 private:
  /// The pool's task source: the next unstarted replicate of the oldest
  /// held batch, else a newly claimed batch's; empty retires the thread.
  std::function<void()> next_task() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (failure_) return {};
      for (const auto& held : held_) {
        if (held->started < held->shard->pending()) {
          HeldBatch* batch = held.get();
          const std::size_t index = batch->order[batch->started++];
          return [this, batch, index] { run_task(*batch, index); };
        }
      }
      if (exhausted_) return {};
      if (claiming_) {
        cv_.wait(lock);
        continue;
      }
      claiming_ = true;
      const std::uint64_t completions = completions_;
      lock.unlock();
      Claim claim;
      std::exception_ptr error;
      try {
        claim = claim_next();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error) {
        claiming_ = false;
        fail_locked(error);
        return {};
      }
      if (claim.batch != nullptr) {
        claiming_ = false;
        HeldBatch* batch = claim.batch.get();
        held_.push_back(std::move(claim.batch));
        cv_.notify_all();
        if (batch->shard->pending() == 0) {
          // Every replicate was already on record (a dead owner finished
          // the batch but not its done marker): complete it right away.
          lock.unlock();
          complete(*batch);
          lock.lock();
        }
        continue;
      }
      if (claim.stop) {
        claiming_ = false;
        exhausted_ = true;
        cv_.notify_all();
        return {};
      }
      // Nothing claimable or stealable right now: other workers hold
      // live leases.  Wait a jittered poll and look again — if one of
      // them dies, its lease expires into the steal scan.  A batch of
      // ours completing may have been the fleet's last, so it cuts the
      // wait short.  The siblings keep waiting on this claimer.
      cv_.wait_for(lock,
                   std::chrono::duration<double>(
                       detail::jittered(options_.poll_seconds, 0.25)),
                   [&] { return failure_ || completions_ != completions; });
      claiming_ = false;
    }
  }

  struct Claim {
    std::unique_ptr<HeldBatch> batch;
    /// No batch is left for this worker: the fleet is complete, or
    /// max_batches leases were claimed.
    bool stop = false;
  };

  /// Claims a queued batch, else steals an expired lease.  Runs on one
  /// pool thread at a time (claiming_), outside mu_.
  Claim claim_next() {
    Claim claim;
    if (options_.max_batches > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      claim.stop = report_.batches_claimed + report_.batches_stolen >=
                   options_.max_batches;
      if (claim.stop) return claim;
    }
    if (done_batches(options_.fleet_dir, plan_.batches).size() ==
        plan_.batches) {
      claim.stop = true;
      return claim;
    }

    // Claim queued work first.  Start the scan at an owner-dependent
    // offset so k workers arriving together spread across the queue
    // instead of all fighting over batch 0.
    const std::vector<std::uint32_t> queued = store_.queued();
    if (!queued.empty()) {
      std::size_t offset = 0;
      for (const char c : options_.worker) {
        offset = offset * 31 + static_cast<unsigned char>(c);
      }
      offset %= queued.size();
      for (std::size_t i = 0; i < queued.size(); ++i) {
        const std::uint32_t batch = queued[(offset + i) % queued.size()];
        if (holds(batch)) continue;
        if (batch_done(options_.fleet_dir, batch)) {
          // A failing worker's re-queued ticket can outlive the batch's
          // completion by a lease thief; once the done marker exists the
          // ticket is dead weight — remove it.
          std::error_code ec;
          fs::remove(queue_ticket_path(options_.fleet_dir, batch), ec);
          continue;
        }
        if (auto lease = store_.try_claim(batch, options_.worker,
                                          options_.ttl_seconds,
                                          hb_relative_)) {
          claim.batch = open(std::move(*lease), /*stolen=*/false);
          return claim;
        }
      }
    }

    const std::int64_t now = LeaseStore::now_unix_ms();
    for (const Lease& lease : store_.leases()) {
      if (holds(lease.batch)) continue;  // ours, however late its renewal
      if (batch_done(options_.fleet_dir, lease.batch)) {
        // Completed batch with lease residue: its finisher died between
        // the done marker and the sweep.  Clean it up.
        store_.remove_lease_files(lease.batch);
        continue;
      }
      if (!lease.expired(now)) continue;
      if (auto stolen = store_.try_steal(lease, options_.worker,
                                         options_.ttl_seconds,
                                         hb_relative_)) {
        claim.batch = open(std::move(*stolen), /*stolen=*/true);
        return claim;
      }
    }
    return claim;
  }

  /// Opens a freshly leased batch as runner shard (batch, B): folds every
  /// record file previous owners left, appends our own, and shares the
  /// snaps dir so a dead owner's mid-replicate snapshot resumes
  /// bit-identically.  If that fails the batch goes straight back.
  std::unique_ptr<HeldBatch> open(Lease lease, bool stolen) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++(stolen ? report_.batches_stolen : report_.batches_claimed);
    }
    auto batch = std::make_unique<HeldBatch>();
    batch->lease = std::move(lease);
    batch->start_ns = obs::now_ns();
    const Lease& held = batch->lease;
    try {
      // Fold the batch's existing records (other generations, other
      // owners, or our own killed predecessor) BEFORE opening our append
      // sink.
      auto checkpoint = std::make_shared<exp::Checkpoint>(
          scenario_.name, scenario_.master_seed);
      for (const std::string& path :
           batch_record_files(options_.fleet_dir, held.batch)) {
        checkpoint->load_file(path);
      }
      exp::log_checkpoint_anomalies(
          checkpoint->stats(), "fleet: batch " + std::to_string(held.batch));
      const std::string records = records_path(
          options_.fleet_dir, held.batch, held.generation, held.owner);
      batch->records = "records/" + fs::path(records).filename().string();
      batch->sink = std::make_unique<exp::JsonLinesSink>(
          records, exp::JsonLinesSink::Mode::kAppend);

      heartbeat_.add_total(plan_.batch_task_count(held.batch));
      exp::RunnerOptions runner_options;
      runner_options.shard_index = held.batch;
      runner_options.shard_count = plan_.batches;
      runner_options.resume_from = checkpoint;
      runner_options.heartbeat = &heartbeat_;
      runner_options.snapshot_dir = snaps_dir(options_.fleet_dir);
      runner_options.snapshot_every_ticks = options_.snapshot_every_ticks;
      runner_options.snapshot_every_seconds = options_.snapshot_every_seconds;
      exp::JsonLinesSink* sink = batch->sink.get();
      const exp::Scenario& scenario = scenario_;
      runner_options.progress = [sink, &scenario](
                                    const exp::Cell& cell,
                                    std::size_t cell_index,
                                    std::uint32_t replicate,
                                    const exp::ReplicateResult& result) {
        sink->write_replicate(scenario.name, scenario.master_seed, cell,
                              cell_index, replicate, result);
      };
      batch->shard = std::make_unique<exp::SweepShard>(
          scenario_, std::move(runner_options));
      const exp::SweepShard& shard = *batch->shard;
      batch->order.resize(shard.pending());
      std::iota(batch->order.begin(), batch->order.end(), std::size_t{0});
      std::stable_sort(batch->order.begin(), batch->order.end(),
                       [&shard](std::size_t a, std::size_t b) {
                         return shard.cell(a).n > shard.cell(b).n;
                       });
      batch->renewer = std::make_unique<LeaseRenewer>(store_, held);
    } catch (...) {
      give_back(held);
      throw;
    }
    heartbeat_.add_lease(held.label());
    std::lock_guard<std::mutex> lock(mu_);
    batch->lane = free_lane_locked();
    return batch;
  }

  std::uint32_t free_lane_locked() const {
    for (std::uint32_t lane = kBatchLaneBase;; ++lane) {
      if (std::none_of(held_.begin(), held_.end(),
                       [lane](const auto& held) {
                         return held->lane == lane;
                       })) {
        return lane;
      }
    }
  }

  bool holds(std::uint32_t batch) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::any_of(held_.begin(), held_.end(), [batch](const auto& held) {
      return held->lease.batch == batch;
    });
  }

  void run_task(HeldBatch& batch, std::size_t index) {
    try {
      batch.shard->run(index, gate_);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      fail_locked(std::current_exception());
      return;
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = ++batch.finished == batch.shard->pending();
    }
    if (last) complete(batch);
  }

  /// Completion order matters for crash-only recovery: done marker FIRST
  /// (the batch is finished the instant it lands), then the lease sweep.
  /// Dying in between leaves residue that any idle worker cleans later.
  void complete(HeldBatch& batch) {
    const Lease& lease = batch.lease;
    const std::uint64_t executed = batch.shard->pending();
    const std::uint64_t resumed = batch.shard->resumed();
    try {
      batch.renewer->stop();
      batch.shard->trace_cells();
      write_done_marker(options_.fleet_dir, lease.batch, lease.owner,
                        batch.records, executed + resumed);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      fail_locked(std::current_exception());
      return;  // still held: re-queued and released on the way out
    }
    store_.remove_lease_files(lease.batch);
    static const auto c_completed = obs::counter("fleet.batch_completed");
    obs::add(c_completed, 1);
    heartbeat_.remove_lease(lease.label());
    obs::record_span_on("fleet_batch", batch.start_ns, obs::now_ns(), "batch",
                        static_cast<std::int64_t>(lease.batch), "generation",
                        static_cast<std::int64_t>(lease.generation),
                        batch.lane);

    std::unique_ptr<HeldBatch> retired;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++report_.batches_completed;
      report_.replicates_executed += executed;
      report_.replicates_resumed += resumed;
      out_ << "fleet: " << lease.owner << " completed " << lease.label()
           << " (" << executed << " executed, " << resumed << " resumed)\n";
      for (auto it = held_.begin(); it != held_.end(); ++it) {
        if (it->get() == &batch) {
          retired = std::move(*it);
          held_.erase(it);
          break;
        }
      }
      ++completions_;
      cv_.notify_all();
    }
    persist_stats();
  }

  /// Put the ticket back FIRST, then drop the lease — in that order a
  /// kill in between leaves a benign ticket+lease pair, never an
  /// unreachable batch.  The survivors claim it immediately.
  void give_back(const Lease& lease) {
    static const auto c_failed = obs::counter("fleet.batch_failed");
    obs::add(c_failed, 1);
    requeue_batch(options_.fleet_dir, lease.batch);
    store_.release(lease);
  }

  void abandon_held() {
    for (const auto& held : held_) {
      held->renewer->stop();
      give_back(held->lease);
      heartbeat_.remove_lease(held->lease.label());
    }
    held_.clear();
  }

  /// Before declaring victory, sweep residue of batches whose finisher
  /// was killed between its done marker and its lease sweep, and tickets
  /// a failing worker re-queued for a batch a lease thief then completed
  /// — a complete fleet leaves no claimable work.
  void sweep_complete_fleet(const std::vector<std::uint32_t>& done) {
    for (const Lease& lease : store_.leases()) {
      if (batch_done(options_.fleet_dir, lease.batch)) {
        store_.remove_lease_files(lease.batch);
      }
    }
    std::error_code ec;
    for (const std::uint32_t batch : done) {
      fs::remove(queue_ticket_path(options_.fleet_dir, batch), ec);
    }
    // Temp debris of workers killed mid-commit (a snapshot, a done marker,
    // a lease) outlives the age-gated sweeps when the fleet finishes fast.
    // With every batch done no such writer is left to protect, so sweep
    // every directory fleet::violations() inspects — except hb/, where
    // live workers, this one included, still commit heartbeats and stats.
    const fs::path hb =
        fs::path(hb_dir(options_.fleet_dir)).lexically_normal();
    std::vector<fs::path> dirs{options_.fleet_dir};
    for (const auto& entry :
         fs::recursive_directory_iterator(options_.fleet_dir, ec)) {
      std::error_code entry_ec;
      if (entry.is_directory(entry_ec)) dirs.push_back(entry.path());
    }
    for (const fs::path& dir : dirs) {
      sweep_durable_temps(
          dir.string(),
          dir.lexically_normal() == hb ? kStaleTempAgeSeconds : 0.0);
    }
  }

  void fail_locked(std::exception_ptr error) {
    if (!failure_) failure_ = std::move(error);
    cv_.notify_all();
  }

  const exp::Scenario& scenario_;
  const WorkerOptions& options_;
  const FleetPlan& plan_;
  const LeaseStore& store_;
  obs::Heartbeat& heartbeat_;
  std::ostream& out_;
  const std::string hb_relative_;
  exp::MemoryGate gate_;

  std::mutex mu_;  ///< guards everything below, and out_
  std::condition_variable cv_;
  std::vector<std::unique_ptr<HeldBatch>> held_;  ///< claim order
  bool claiming_ = false;
  bool exhausted_ = false;
  std::uint64_t completions_ = 0;
  std::exception_ptr failure_;
  WorkerReport report_;
  std::mutex stats_mu_;  ///< orders stats-file commits
};

}  // namespace

WorkerReport run_worker(const exp::Scenario& scenario,
                        const WorkerOptions& options, std::ostream& out) {
  GG_CHECK_ARG(valid_owner(options.worker),
               "run_worker: worker id must be non-empty [A-Za-z0-9_-]");
  GG_CHECK_ARG(options.ttl_seconds > 0.0,
               "run_worker: ttl_seconds must be positive");
  GG_CHECK_ARG(options.poll_seconds > 0.0,
               "run_worker: poll_seconds must be positive");

  // The worker's stats file (obs counters: fleet.lease_*,
  // runner.snapshot_restored, ...) is part of the fleet's observability
  // contract, so fleet mode always records.
  obs::set_enabled(true);

  EnsurePlanOptions plan_options;
  plan_options.stale_claim_seconds = options.stale_claim_seconds;
  const FleetPlan plan =
      ensure_plan(options.fleet_dir, scenario, options.batches, plan_options);
  const LeaseStore store(options.fleet_dir);

  obs::Heartbeat::Options hb;
  hb.path = heartbeat_path(options.fleet_dir, options.worker);
  hb.interval_seconds = options.heartbeat_interval_seconds;
  hb.scenario = scenario.name;
  hb.worker = options.worker;
  hb.total_replicates = 0;  // accrues per claimed batch
  obs::Heartbeat heartbeat(std::move(hb));

  Worker worker(scenario, options, plan, store, heartbeat, out);
  const WorkerReport report = worker.run();
  heartbeat.stop();
  worker.persist_stats();
  out << "fleet: " << options.worker << " exiting — "
      << report.batches_completed << " batch(es) completed ("
      << report.batches_claimed << " claimed, " << report.batches_stolen
      << " stolen), fleet "
      << (report.fleet_complete ? "complete" : "still in progress") << "\n";
  return report;
}

void write_worker_stats(const std::string& fleet_dir,
                        const std::string& worker,
                        const WorkerReport& report) {
  const std::map<std::string, std::uint64_t> counters = obs::counter_totals();
  std::string content = "{\"record\":\"fleet_worker_stats\",\"worker\":\"";
  content += worker;
  content += "\",\"batches_completed\":";
  content += std::to_string(report.batches_completed);
  content += ",\"batches_claimed\":";
  content += std::to_string(report.batches_claimed);
  content += ",\"batches_stolen\":";
  content += std::to_string(report.batches_stolen);
  content += ",\"replicates_executed\":";
  content += std::to_string(report.replicates_executed);
  content += ",\"replicates_resumed\":";
  content += std::to_string(report.replicates_resumed);
  content += ",\"fleet_complete\":";
  content += report.fleet_complete ? "true" : "false";
  content += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) content += ",";
    first = false;
    content += "\"";
    content += name;  // counter names are dotted identifiers
    content += "\":";
    content += std::to_string(value);
  }
  content += "}}\n";
  try {
    atomic_write_file(worker_stats_path(fleet_dir, worker), content);
  } catch (const IoError& error) {
    log_error("fleet: writing worker stats failed: ", error.what());
  }
}

}  // namespace geogossip::fleet
