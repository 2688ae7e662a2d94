// The fleet worker: claim, run, renew, steal, repeat — crash-only.
//
// run_worker joins a fleet directory (electing the planner if it arrives
// first; see plan.hpp) and works until every batch has a completion
// marker: claim a queued batch, or steal an expired lease, run the batch
// as Runner shard b-of-B — folding every record file other owners left
// for that batch, appending its own, restoring any mid-replicate
// snapshot a dead owner parked in the shared snaps/ directory — then
// commit the done marker and sweep the batch's lease files.
//
// Batches overlap inside one worker.  The worker keeps one thread pool
// for its whole life; a pool thread that finds no unstarted replicate in
// the batches it holds claims or steals the next batch, so the next
// lease is taken while the current batch drains and no thread idles on
// a batch's slowest replicate.  Each batch still has its own lease and
// renewal, record file, checkpoint fold and done marker, written only
// once all of its records are durable.  The batch count B therefore
// sets lease granularity and recovery cost — how much one lost lease
// re-runs — not throughput.
//
// The contract under fire: ANY worker may be SIGKILLed at ANY instant.
// Whatever phase it died in, the on-disk state is recoverable by the
// survivors — an unclaimed ticket is claimable, a claimed-but-silent
// lease expires and is stolen, a torn record line is sealed and skipped,
// a torn snapshot fails its checksum and the replicate restarts, and a
// completed-but-unswept batch is cleaned by whoever notices.  The merged
// records are byte-identical to an uninterrupted single-process run
// because batch = shard and replicate seeds are deterministic; at most
// one snapshot cadence of one replicate's compute is lost per kill.
#ifndef GEOGOSSIP_FLEET_WORKER_HPP
#define GEOGOSSIP_FLEET_WORKER_HPP

#include <cstdint>
#include <ostream>
#include <string>

#include "exp/scenario.hpp"

namespace geogossip::fleet {

struct WorkerOptions {
  std::string fleet_dir;
  /// Stable worker id ([A-Za-z0-9_-]); becomes lease/record/heartbeat
  /// filename segments.  Must be unique among live workers.
  std::string worker;
  /// Lease TTL; renewed every ttl/3.  Small TTLs recover dead workers
  /// fast but make slow filesystems look dead — see README "Fleet mode".
  double ttl_seconds = 30.0;
  /// Batch count B when founding the fleet; must match an existing plan.
  /// 0 adopts the existing plan (and refuses to found one).
  std::uint32_t batches = 0;
  unsigned threads = 0;
  std::uint64_t memory_budget_bytes = 0;
  std::uint64_t snapshot_every_ticks = 0;
  /// Default cadence: frequent enough that a killed worker loses little.
  double snapshot_every_seconds = 10.0;
  double heartbeat_interval_seconds = 1.0;
  /// Claim at most this many batches, and stop once they are complete
  /// (0 = run until the fleet is complete).  Tests drive single steps
  /// with 1.
  std::uint64_t max_batches = 0;
  /// Idle poll between claim/steal attempts (jittered to decorrelate).
  double poll_seconds = 0.5;
  /// Grace for a dead planner's election claim (see EnsurePlanOptions).
  double stale_claim_seconds = 30.0;
};

struct WorkerReport {
  std::uint64_t batches_completed = 0;
  std::uint64_t batches_claimed = 0;
  std::uint64_t batches_stolen = 0;
  std::uint64_t replicates_executed = 0;
  std::uint64_t replicates_resumed = 0;
  /// True when the loop exited because every batch is done (as opposed
  /// to max_batches).
  bool fleet_complete = false;
};

/// Runs the worker to completion.  Enables telemetry (the stats file
/// below is part of the fleet protocol).  Throws ArgumentError on a plan
/// mismatch or bad options.  When a batch's execution throws, the worker
/// starts nothing new, lets running replicates finish, re-queues and
/// releases every batch it holds for the survivors, then rethrows — a
/// worker fails loudly, never silently swallows a broken batch.
WorkerReport run_worker(const exp::Scenario& scenario,
                        const WorkerOptions& options, std::ostream& out);

/// Commits hb/<worker>.stats.json: the report plus every obs counter
/// (fleet.lease_*, runner.snapshot_restored, ...).  Written after every
/// batch and at exit, so a killed worker still leaves its last state;
/// safe while the worker's other batches keep recording.
void write_worker_stats(const std::string& fleet_dir,
                        const std::string& worker,
                        const WorkerReport& report);

}  // namespace geogossip::fleet

#endif  // GEOGOSSIP_FLEET_WORKER_HPP
