// Tests for the fleet coordinator (satellite #3 of the fault-tolerance
// PR): lease filename round-trips, the claim rename winning exactly once
// under a thread race, steal-only-after-expiry, renewal outliving the
// TTL, supersession detection, planner election (including dead-planner
// re-election and plan mismatch refusal), the solo-worker end-to-end
// path, a kill-at-every-phase battery over hand-built on-disk states,
// torn-snapshot fallback, overlapping batches inside one worker (byte
// identity at any batch and thread count, max_batches, a failure while
// two batches are held), and merge bit-identity against an
// uninterrupted single-process run.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/convergence.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "fleet/worker.hpp"
#include "support/check.hpp"

namespace geogossip {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ggfleet_" + leaf);
  fs::remove_all(dir);
  return dir.string();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "failed writing " << path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Two small pairwise-gossip cells; fast enough to run dozens of times.
exp::Scenario fleet_scenario() {
  exp::Scenario scenario;
  scenario.name = "fleet-e2e";
  scenario.replicates = 2;
  scenario.master_seed = 21;
  for (const std::size_t n : {std::size_t{96}, std::size_t{128}}) {
    auto& cell = scenario.add(core::ProtocolKind::kBoydPairwise, n);
    cell.options.eps = 1e-2;
  }
  return scenario;
}

/// Election options that never actually sleep (the fleet dir is local,
/// contention resolves in microseconds).
fleet::EnsurePlanOptions fast_plan_options() {
  fleet::EnsurePlanOptions options;
  options.stale_claim_seconds = 0.0;
  options.poll_seconds = 0.001;
  return options;
}

fleet::WorkerOptions worker_options(const std::string& fleet_dir,
                                    const std::string& worker,
                                    std::uint32_t batches) {
  fleet::WorkerOptions options;
  options.fleet_dir = fleet_dir;
  options.worker = worker;
  options.batches = batches;
  options.ttl_seconds = 0.2;
  options.threads = 2;
  options.poll_seconds = 0.02;
  options.stale_claim_seconds = 0.0;
  options.heartbeat_interval_seconds = 0.5;
  return options;
}

/// The reference: an uninterrupted single-process run at the same thread
/// count every fleet worker uses in these tests.
exp::SweepSummary reference_summary(const exp::Scenario& scenario) {
  exp::RunnerOptions options;
  options.threads = 2;
  return exp::Runner(options).run(scenario);
}

bool summaries_identical(const exp::SweepSummary& a,
                         const exp::SweepSummary& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& ca = a.cells[i];
    const auto& cb = b.cells[i];
    if (ca.converged != cb.converged) return false;
    if (ca.median_tx != cb.median_tx) return false;
    if (ca.q25_tx != cb.q25_tx) return false;
    if (ca.q75_tx != cb.q75_tx) return false;
    if (ca.mean_control_share != cb.mean_control_share) return false;
  }
  return true;
}

/// Folds every fleet record file and re-aggregates without executing
/// anything — the merge path run_fleet_merge uses.
exp::SweepSummary merge_fleet(const std::string& fleet_dir,
                              const exp::Scenario& scenario) {
  auto checkpoint = std::make_shared<exp::Checkpoint>(scenario.name,
                                                      scenario.master_seed);
  for (const std::string& file : fleet::all_record_files(fleet_dir)) {
    checkpoint->load_file(file);
  }
  exp::RunnerOptions options;
  options.threads = 2;
  options.resume_from = checkpoint;
  return exp::Runner(options).run(scenario);
}

/// The complete-fleet cleanliness invariant: all batches done, no queue
/// tickets, no lease files, no temp debris, no parked snapshots.
void expect_fleet_clean(const std::string& fleet_dir, std::uint32_t batches) {
  EXPECT_EQ(fleet::done_batches(fleet_dir, batches).size(), batches);
  EXPECT_TRUE(fs::is_empty(fleet::queue_dir(fleet_dir)));
  EXPECT_TRUE(fs::is_empty(fleet::leases_dir(fleet_dir)));
  for (const auto& entry : fs::recursive_directory_iterator(fleet_dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos)
        << "temp debris left behind: " << entry.path();
    EXPECT_EQ(name.find(".ggsnap"), std::string::npos)
        << "snapshot left parked after completion: " << entry.path();
  }
}

/// Runs a fresh worker to fleet completion and checks the full
/// robustness contract: complete, clean, and merge-identical to the
/// uninterrupted reference.
void complete_and_verify(const std::string& fleet_dir,
                         const exp::Scenario& scenario, std::uint32_t batches,
                         const exp::SweepSummary& reference,
                         const std::string& worker) {
  std::ostringstream out;
  const fleet::WorkerReport report =
      fleet::run_worker(scenario, worker_options(fleet_dir, worker, batches),
                        out);
  EXPECT_TRUE(report.fleet_complete) << out.str();
  expect_fleet_clean(fleet_dir, batches);
  const exp::SweepSummary merged = merge_fleet(fleet_dir, scenario);
  EXPECT_EQ(merged.executed_replicates, 0u)
      << "merge had to execute work — fleet records are incomplete";
  EXPECT_TRUE(summaries_identical(merged, reference));
}

// -------------------------------------------------------- lease names ----

TEST(LeaseFilename, RoundTripsThroughParse) {
  const std::string name = fleet::lease_filename(12, 3, "w-abc_7");
  EXPECT_EQ(name, "batch-12.g3.w-abc_7.lease");
  std::uint32_t batch = 0;
  std::uint32_t generation = 0;
  std::string owner;
  ASSERT_TRUE(fleet::parse_lease_filename(name, &batch, &generation, &owner));
  EXPECT_EQ(batch, 12u);
  EXPECT_EQ(generation, 3u);
  EXPECT_EQ(owner, "w-abc_7");
}

TEST(LeaseFilename, RejectsDebrisAndForeignNames) {
  std::uint32_t batch = 0;
  std::uint32_t generation = 0;
  std::string owner;
  for (const std::string name :
       {"batch-1.g0.w1.lease.tmp.123", "batch-1.json", "batch-x.g0.w1.lease",
        "batch-1.gx.w1.lease", "batch-1.g0..lease", "", "lease"}) {
    EXPECT_FALSE(
        fleet::parse_lease_filename(name, &batch, &generation, &owner))
        << name;
  }
}

TEST(LeaseFilename, OwnerValidationGuardsFilenameSegments) {
  EXPECT_TRUE(fleet::valid_owner("w1-host_A"));
  EXPECT_FALSE(fleet::valid_owner(""));
  EXPECT_FALSE(fleet::valid_owner("has space"));
  EXPECT_FALSE(fleet::valid_owner("dot.dot"));
  EXPECT_FALSE(fleet::valid_owner("slash/slash"));
  EXPECT_FALSE(fleet::valid_owner(std::string(129, 'a')));
}

// -------------------------------------------------------------- claims ----

TEST(LeaseStore, RefusesADirectoryWithoutALayout) {
  const std::string dir = test_dir("no_layout");
  fs::create_directories(dir);
  EXPECT_THROW(fleet::LeaseStore store(dir), ArgumentError);
}

TEST(LeaseStore, ClaimRaceHasExactlyOneWinner) {
  const std::string dir = test_dir("claim_race");
  const exp::Scenario scenario = fleet_scenario();
  fleet::ensure_plan(dir, scenario, 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  constexpr int kRacers = 8;
  std::atomic<int> wins{0};
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    racers.emplace_back([&store, &wins, i] {
      const std::string owner = "racer" + std::to_string(i);
      if (store.try_claim(0, owner, 30.0, "hb/" + owner + ".jsonl")) {
        wins.fetch_add(1);
      }
    });
  }
  for (auto& racer : racers) racer.join();

  EXPECT_EQ(wins.load(), 1);
  EXPECT_TRUE(store.queued().empty());
  ASSERT_EQ(store.leases().size(), 1u);
  EXPECT_EQ(store.leases()[0].generation, 0u);
}

TEST(LeaseStore, StealRefusesALiveLease) {
  const std::string dir = test_dir("steal_live");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  const auto lease = store.try_claim(0, "alive", 30.0, "hb/alive.jsonl");
  ASSERT_TRUE(lease.has_value());
  EXPECT_FALSE(
      store.try_steal(*lease, "thief", 30.0, "hb/thief.jsonl").has_value());
}

TEST(LeaseStore, StealTakesAnExpiredLeaseAtTheNextGeneration) {
  const std::string dir = test_dir("steal_expired");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  const auto lease = store.try_claim(0, "dying", 0.01, "hb/dying.jsonl");
  ASSERT_TRUE(lease.has_value());
  sleep_ms(30);  // let the 10ms TTL lapse with no renewal

  const auto stolen =
      store.try_steal(*lease, "thief", 30.0, "hb/thief.jsonl");
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->batch, 0u);
  EXPECT_EQ(stolen->generation, 1u);
  EXPECT_EQ(stolen->owner, "thief");
  EXPECT_FALSE(fs::exists(lease->path)) << "old generation not renamed away";
  ASSERT_EQ(store.leases().size(), 1u);
  EXPECT_EQ(store.leases()[0].generation, 1u);
}

TEST(LeaseStore, RenewalKeepsALeaseAliveWellPastItsTtl) {
  const std::string dir = test_dir("renew_beats_ttl");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  auto lease = store.try_claim(0, "slow", 0.05, "hb/slow.jsonl");
  ASSERT_TRUE(lease.has_value());
  // Outlive the 50ms TTL several times over, renewing along the way — an
  // alive-but-slow owner must never look stealable.
  for (int i = 0; i < 5; ++i) {
    sleep_ms(20);
    ASSERT_TRUE(store.renew(*lease));
    EXPECT_FALSE(
        store.try_steal(*lease, "thief", 30.0, "hb/thief.jsonl").has_value())
        << "renewed lease was stolen on round " << i;
  }
}

TEST(LeaseStore, RenewDetectsSupersessionAndSelfCleans) {
  const std::string dir = test_dir("renew_superseded");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  auto lease = store.try_claim(0, "victim", 0.01, "hb/victim.jsonl");
  ASSERT_TRUE(lease.has_value());
  sleep_ms(30);
  ASSERT_TRUE(
      store.try_steal(*lease, "thief", 30.0, "hb/thief.jsonl").has_value());

  EXPECT_FALSE(store.renew(*lease))
      << "original owner failed to notice the higher generation";
  // Exactly the thief's generation-1 lease remains.
  const auto leases = store.leases();
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].generation, 1u);
  EXPECT_EQ(leases[0].owner, "thief");
}

TEST(LeaseStore, ReleaseMakesABatchInstantlyStealable) {
  const std::string dir = test_dir("release");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  const auto lease = store.try_claim(0, "quitter", 30.0, "hb/q.jsonl");
  ASSERT_TRUE(lease.has_value());
  store.release(*lease);
  EXPECT_TRUE(store.leases().empty());
}

// ------------------------------------------------------------ the plan ----

TEST(FleetPlan, BatchTaskCountsPartitionTheTaskStream) {
  fleet::FleetPlan plan;
  plan.cells = 3;
  plan.replicates = 2;
  plan.batches = 4;
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < plan.batches; ++b) {
    total += plan.batch_task_count(b);
  }
  EXPECT_EQ(total, plan.total_tasks());
  EXPECT_EQ(plan.batch_task_count(0), 2u);  // 6 tasks round-robin over 4
  EXPECT_EQ(plan.batch_task_count(3), 1u);
}

TEST(FleetPlan, EnsurePlanFoundsValidatesAndAdopts) {
  const std::string dir = test_dir("plan_lifecycle");
  const exp::Scenario scenario = fleet_scenario();

  const fleet::FleetPlan founded =
      fleet::ensure_plan(dir, scenario, 2, fast_plan_options());
  EXPECT_EQ(founded.batches, 2u);
  EXPECT_EQ(founded.scenario, scenario.name);
  // Layout is complete: tickets for both batches, all subdirectories.
  fleet::LeaseStore store(dir);
  EXPECT_EQ(store.queued(), (std::vector<std::uint32_t>{0, 1}));

  // Rejoining with the same shape is idempotent; batches = 0 adopts.
  EXPECT_EQ(fleet::ensure_plan(dir, scenario, 2, fast_plan_options()).batches,
            2u);
  EXPECT_EQ(fleet::ensure_plan(dir, scenario, 0, fast_plan_options()).batches,
            2u);

  // A different batch count, or any scenario-shape drift, is refused.
  EXPECT_THROW(fleet::ensure_plan(dir, scenario, 3, fast_plan_options()),
               ArgumentError);
  exp::Scenario edited = fleet_scenario();
  edited.master_seed = 22;
  EXPECT_THROW(fleet::ensure_plan(dir, edited, 2, fast_plan_options()),
               ArgumentError);
}

TEST(FleetPlan, DeadPlannerClaimIsSweptAndTheElectionReruns) {
  const std::string dir = test_dir("dead_planner");
  // Simulate a planner SIGKILLed after winning the election but before
  // committing plan.json: the claim directory exists, nothing else does.
  fs::create_directories(fleet::claim_dir(dir));

  const fleet::FleetPlan plan =
      fleet::ensure_plan(dir, fleet_scenario(), 2, fast_plan_options());
  EXPECT_EQ(plan.batches, 2u);
  EXPECT_TRUE(fs::exists(fleet::plan_path(dir)));
}

TEST(FleetPlan, WaitingOutAForeignElectionTimesOutLoudly) {
  const std::string dir = test_dir("election_timeout");
  fs::create_directories(fleet::claim_dir(dir));

  fleet::EnsurePlanOptions options;
  options.stale_claim_seconds = 9999.0;  // the claim never looks dead
  options.wait_timeout_seconds = 0.2;
  options.poll_seconds = 0.1;
  std::vector<double> sleeps;
  options.sleeper = [&sleeps](double seconds) { sleeps.push_back(seconds); };
  EXPECT_THROW(fleet::ensure_plan(dir, fleet_scenario(), 2, options),
               IoError);
  EXPECT_GE(sleeps.size(), 2u);
}

TEST(FleetPlan, CorruptPlanStopsTheFleetInsteadOfRestartingIt) {
  const std::string dir = test_dir("corrupt_plan");
  fleet::ensure_plan(dir, fleet_scenario(), 2, fast_plan_options());
  spit(fleet::plan_path(dir), "{\"record\":\"fleet_plan\",\"schema\":");
  EXPECT_THROW(fleet::try_load_plan(dir), ArgumentError);
}

TEST(FleetPlan, RequeueRestoresAClaimableTicket) {
  const std::string dir = test_dir("requeue");
  fleet::ensure_plan(dir, fleet_scenario(), 2, fast_plan_options());
  fleet::LeaseStore store(dir);
  ASSERT_TRUE(store.try_claim(1, "w1", 30.0, "hb/w1.jsonl").has_value());
  ASSERT_EQ(store.queued(), (std::vector<std::uint32_t>{0}));

  fleet::requeue_batch(dir, 1);
  fleet::requeue_batch(dir, 1);  // idempotent
  EXPECT_EQ(store.queued(), (std::vector<std::uint32_t>{0, 1}));
}

// --------------------------------------------------------- solo worker ----

TEST(FleetWorker, SoloWorkerCompletesTheFleetCleanly) {
  const std::string dir = test_dir("solo");
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);

  std::ostringstream out;
  const fleet::WorkerReport report =
      fleet::run_worker(scenario, worker_options(dir, "solo", 2), out);

  EXPECT_TRUE(report.fleet_complete);
  EXPECT_EQ(report.batches_completed, 2u);
  EXPECT_EQ(report.batches_claimed, 2u);
  EXPECT_EQ(report.batches_stolen, 0u);
  EXPECT_EQ(report.replicates_executed, 4u);
  expect_fleet_clean(dir, 2);

  const exp::SweepSummary merged = merge_fleet(dir, scenario);
  EXPECT_EQ(merged.executed_replicates, 0u);
  EXPECT_EQ(merged.resumed_replicates, 4u);
  EXPECT_TRUE(summaries_identical(merged, reference));

  // The protocol artifacts a fleet leaves for humans and tooling.  The
  // obs counters are process-global totals, so assert the keys exist
  // rather than exact values (earlier tests may also have counted).
  EXPECT_TRUE(fs::exists(fleet::heartbeat_path(dir, "solo")));
  const std::string stats = slurp(fleet::worker_stats_path(dir, "solo"));
  EXPECT_NE(stats.find("\"record\":\"fleet_worker_stats\""),
            std::string::npos);
  EXPECT_NE(stats.find("\"batches_completed\":2"), std::string::npos);
  EXPECT_NE(stats.find("\"fleet.lease_claimed\":"), std::string::npos);
  EXPECT_NE(stats.find("\"fleet.batch_completed\":"), std::string::npos);
}

TEST(FleetWorker, MaxBatchesStopsEarlyAndASecondWorkerFinishes) {
  const std::string dir = test_dir("two_steps");
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);

  std::ostringstream out;
  fleet::WorkerOptions first = worker_options(dir, "first", 2);
  first.max_batches = 1;
  const fleet::WorkerReport step =
      fleet::run_worker(scenario, first, out);
  EXPECT_FALSE(step.fleet_complete);
  EXPECT_EQ(step.batches_completed, 1u);

  complete_and_verify(dir, scenario, 2, reference, "second");
}

TEST(FleetWorker, RefusesBadOptions) {
  const std::string dir = test_dir("bad_options");
  std::ostringstream out;
  fleet::WorkerOptions options = worker_options(dir, "bad name", 2);
  EXPECT_THROW(fleet::run_worker(fleet_scenario(), options, out),
               ArgumentError);
  options = worker_options(dir, "ok", 2);
  options.ttl_seconds = 0.0;
  EXPECT_THROW(fleet::run_worker(fleet_scenario(), options, out),
               ArgumentError);
  // batches = 0 refuses to FOUND a fleet (nothing to adopt here).
  options = worker_options(dir, "ok", 0);
  EXPECT_THROW(fleet::run_worker(fleet_scenario(), options, out),
               ArgumentError);
}

// ----------------------------------------------- kill at every phase ----

// Simulates a worker SIGKILLed at each phase of the protocol by building
// exactly the on-disk state such a kill leaves, then asserts one fresh
// worker drives the fleet to a complete, clean, merge-identical end.
TEST(FleetWorker, RecoversFromAKillAtEveryProtocolPhase) {
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);
  constexpr std::uint32_t kBatches = 2;

  {  // Phase: killed after the election claim, before plan.json.
    const std::string dir = test_dir("kill_mid_election");
    fs::create_directories(fleet::claim_dir(dir));
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }

  {  // Phase: killed after founding — plan + tickets, nothing claimed.
    const std::string dir = test_dir("kill_after_plan");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }

  {  // Phase: killed between the claim rename and the first renewal —
     // the lease file still holds ticket content (expires = 0), which
     // must read as instantly reclaimable.
    const std::string dir = test_dir("kill_pre_renewal");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    fs::rename(fleet::queue_ticket_path(dir, 0),
               fs::path(fleet::leases_dir(dir)) /
                   fleet::lease_filename(0, 0, "dead"));
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }

  {  // Phase: killed mid-batch after renewing — a real lease whose TTL
     // then lapses, no records written yet.
    const std::string dir = test_dir("kill_mid_batch");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    fleet::LeaseStore store(dir);
    ASSERT_TRUE(store.try_claim(0, "dead", 0.01, "hb/dead.jsonl").has_value());
    sleep_ms(30);
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }

  {  // Phase: killed mid-batch with partial records and a torn final
     // line.  The new owner folds the finished record, seals the torn
     // debris, and runs only the remainder.
    const std::string dir = test_dir("kill_torn_records");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    fleet::LeaseStore store(dir);
    ASSERT_TRUE(store.try_claim(0, "dead", 0.01, "hb/dead.jsonl").has_value());
    // Batch 0 of 2 owns tasks {0, 2} = (cell 0, rep 0) and (cell 1, rep 0).
    // Persist the first the way the dead worker would have...
    const exp::ReplicateResult done = exp::run_replicate(
        scenario.cells[0],
        exp::replicate_seed(scenario.master_seed, 0, 0));
    const std::string records = fleet::records_path(dir, 0, 0, "dead");
    {
      exp::JsonLinesSink sink(records);
      sink.write_replicate(scenario.name, scenario.master_seed,
                           scenario.cells[0], 0, 0, done);
    }
    // ...then append the torn debris of the record it died writing.
    std::ofstream torn(records, std::ios::binary | std::ios::app);
    torn << "{\"record\":\"replicate\",\"scenario\":\"fleet-e2e\",\"cell";
    torn.close();
    sleep_ms(30);
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
    // The dead owner's record was reused, not re-run: folding every
    // record file yields 4 distinct records with zero duplicates.
    exp::Checkpoint fold(scenario.name, scenario.master_seed);
    for (const std::string& file : fleet::all_record_files(dir)) {
      fold.load_file(file);
    }
    EXPECT_EQ(fold.stats().accepted, 4u);
    EXPECT_EQ(fold.stats().duplicate, 0u);
  }

  {  // Phase: killed after claiming a second lease while the first batch
     // drained — two expired leases of one owner, the first with one of
     // its records on disk, the second with none.
    const std::string dir = test_dir("kill_two_leases");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    fleet::LeaseStore store(dir);
    ASSERT_TRUE(store.try_claim(0, "dead", 0.01, "hb/dead.jsonl").has_value());
    {
      exp::JsonLinesSink sink(fleet::records_path(dir, 0, 0, "dead"));
      sink.write_replicate(
          scenario.name, scenario.master_seed, scenario.cells[0], 0, 0,
          exp::run_replicate(scenario.cells[0],
                             exp::replicate_seed(scenario.master_seed, 0, 0)));
    }
    ASSERT_TRUE(store.try_claim(1, "dead", 0.01, "hb/dead.jsonl").has_value());
    sleep_ms(30);
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
    exp::Checkpoint fold(scenario.name, scenario.master_seed);
    for (const std::string& file : fleet::all_record_files(dir)) {
      fold.load_file(file);
    }
    EXPECT_EQ(fold.stats().accepted, 4u);
    EXPECT_EQ(fold.stats().duplicate, 0u);
  }

  {  // Phase: killed between the done marker and the lease sweep — the
     // batch is complete but its lease file lingers.
    const std::string dir = test_dir("kill_before_sweep");
    std::ostringstream out;
    fleet::WorkerOptions first = worker_options(dir, "finisher", kBatches);
    first.max_batches = 1;
    const fleet::WorkerReport step =
        fleet::run_worker(scenario, first, out);
    ASSERT_EQ(step.batches_completed, 1u);
    const std::uint32_t finished =
        fleet::done_batches(dir, kBatches).at(0);
    spit((fs::path(fleet::leases_dir(dir)) /
          fleet::lease_filename(finished, 1, "finisher"))
             .string(),
         "{\"record\":\"fleet_lease\"}");
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }
}

TEST(FleetWorker, TornSnapshotFallsBackToRestartFromScratch) {
  const std::string dir = test_dir("torn_snapshot");
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);

  fleet::ensure_plan(dir, scenario, 2, fast_plan_options());
  // A dead worker parked a snapshot for (cell 0, replicate 0), but the
  // kill tore it: the reclaiming worker must fail its restore cleanly
  // and rerun the replicate from scratch, bit-identically.
  spit((fs::path(fleet::snaps_dir(dir)) / "snap-c0-r0.ggsnap").string(),
       "GGSNAPnot really a snapshot");
  fs::rename(fleet::queue_ticket_path(dir, 0),
             fs::path(fleet::leases_dir(dir)) /
                 fleet::lease_filename(0, 0, "dead"));

  complete_and_verify(dir, scenario, 2, reference, "rescue");
}

// ------------------------------------------------- overlapping batches ----

/// Sweep CSV bytes with the thread-count column pinned, so runs at
/// different thread counts compare byte for byte.
std::string csv_bytes(exp::SweepSummary summary) {
  summary.threads = 0;
  std::ostringstream out;
  exp::CsvSink sink(out);
  sink.write(summary);
  return out.str();
}

/// Three cells x 4 replicates: enough tasks for four batches to overlap.
exp::Scenario overlap_scenario() {
  exp::Scenario scenario = fleet_scenario();
  scenario.name = "fleet-overlap";
  scenario.replicates = 4;
  scenario.add(core::ProtocolKind::kDimakisGeographic, 128).options.eps =
      1e-2;
  return scenario;
}

TEST(FleetWorker, OneWorkerAtFourBatchesMergesToTheBytesOfOneBatch) {
  const exp::Scenario scenario = overlap_scenario();
  for (const unsigned threads : {1u, 4u}) {
    exp::RunnerOptions plain;
    plain.threads = threads;
    const std::string reference = csv_bytes(exp::Runner(plain).run(scenario));
    for (const std::uint32_t batches : {1u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", batches " +
                   std::to_string(batches));
      const std::string dir = test_dir("overlap_t" + std::to_string(threads) +
                                       "_b" + std::to_string(batches));
      fleet::WorkerOptions options = worker_options(dir, "solo", batches);
      options.threads = threads;
      std::ostringstream out;
      const fleet::WorkerReport report =
          fleet::run_worker(scenario, options, out);
      EXPECT_TRUE(report.fleet_complete) << out.str();
      EXPECT_EQ(report.batches_completed, batches);
      EXPECT_EQ(report.replicates_executed, 12u);
      expect_fleet_clean(dir, batches);
      EXPECT_EQ(csv_bytes(merge_fleet(dir, scenario)), reference);
    }
  }
}

TEST(FleetWorker, MaxBatchesOneNeverClaimsASecondLease) {
  const std::string dir = test_dir("max_one");
  const exp::Scenario scenario = overlap_scenario();
  fleet::WorkerOptions options = worker_options(dir, "once", 4);
  options.threads = 4;
  options.max_batches = 1;
  options.heartbeat_interval_seconds = 0.001;
  std::ostringstream out;
  const fleet::WorkerReport report =
      fleet::run_worker(scenario, options, out);

  EXPECT_FALSE(report.fleet_complete);
  EXPECT_EQ(report.batches_claimed + report.batches_stolen, 1u);
  EXPECT_EQ(report.batches_completed, 1u);
  EXPECT_EQ(report.replicates_executed, 3u);
  // No lease residue; the three unclaimed batches keep their tickets and
  // the completed one has none.
  EXPECT_TRUE(fs::is_empty(fleet::leases_dir(dir)));
  const std::vector<std::uint32_t> done = fleet::done_batches(dir, 4);
  ASSERT_EQ(done.size(), 1u);
  const std::vector<std::uint32_t> queued = fleet::LeaseStore(dir).queued();
  EXPECT_EQ(queued.size(), 3u);
  EXPECT_EQ(std::count(queued.begin(), queued.end(), done[0]), 0);
  // The heartbeat never showed a second lease.
  std::istringstream beats(slurp(fleet::heartbeat_path(dir, "once")));
  for (std::string line; std::getline(beats, line);) {
    EXPECT_EQ(line.find("\",\"batch-"), std::string::npos) << line;
  }
}

std::atomic<bool> g_inject_failure{false};
std::atomic<bool> g_injected{false};

bool poll_until(const std::function<bool()>& condition) {
  for (int i = 0; i < 2000; ++i) {
    if (condition()) return true;
    sleep_ms(5);
  }
  return false;
}

TEST(FleetWorker, AFailureReleasesEveryHeldBatchAndASecondWorkerFinishes) {
  const std::string dir = test_dir("fail_two_held");
  // One cell, three replicates, two batches: batch 0 owns replicates
  // {0, 2}, batch 1 owns {1}.
  exp::Scenario scenario;
  scenario.name = "fleet-failure";
  scenario.replicates = 3;
  scenario.master_seed = 8;
  const std::uint64_t seed_1 = exp::replicate_seed(8, 0, 1);
  const std::uint64_t seed_2 = exp::replicate_seed(8, 0, 2);
  exp::Cell& cell = scenario.add(core::ProtocolKind::kBoydPairwise, 64);
  cell.trial = [dir, seed_1, seed_2](const exp::Cell&, std::uint64_t seed) {
    exp::ReplicateResult result;
    result.converged = true;
    result.metrics["seed_low"] = static_cast<double>(seed & 0xFFFF);
    if (!g_inject_failure) return result;
    if (seed == seed_1) {
      // Batch 1's only replicate: throw once batch 0 has been stolen, so
      // that it is in flight on the other pool thread.
      poll_until([&] {
        return fs::exists(fs::path(fleet::leases_dir(dir)) /
                          fleet::lease_filename(0, 1, "w1"));
      });
      g_injected = true;
      throw std::runtime_error("injected replicate failure");
    }
    if (seed == seed_2) {
      // Starts only if it raced the failure; failing too keeps batch 0
      // incomplete either way.
      throw std::runtime_error("injected replicate failure");
    }
    // Batch 0's first replicate finishes beside the failure.
    poll_until([] { return g_injected.load(); });
    return result;
  };

  // Batch 0 sits under a dead worker's expired lease, so the worker
  // claims the queued batch 1 first and steals batch 0 as batch 1 drains.
  fleet::ensure_plan(dir, scenario, 2, fast_plan_options());
  fleet::LeaseStore store(dir);
  ASSERT_TRUE(store.try_claim(0, "dead", 0.01, "hb/dead.jsonl").has_value());
  sleep_ms(30);

  g_inject_failure = true;
  g_injected = false;
  std::ostringstream out;
  EXPECT_THROW(fleet::run_worker(scenario, worker_options(dir, "w1", 2), out),
               std::runtime_error);
  g_inject_failure = false;
  ASSERT_TRUE(g_injected.load()) << "the failure never met batch 0 in flight";

  // Both batches went back: tickets restored, leases released, neither
  // done.
  EXPECT_EQ(store.queued(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(store.leases().empty());
  EXPECT_TRUE(fleet::done_batches(dir, 2).empty());

  std::ostringstream rescue_out;
  const fleet::WorkerReport rescue =
      fleet::run_worker(scenario, worker_options(dir, "w2", 2), rescue_out);
  EXPECT_TRUE(rescue.fleet_complete);
  // Batch 0's replicate that finished beside the failure was kept.
  EXPECT_EQ(rescue.replicates_resumed, 1u);
  EXPECT_EQ(rescue.replicates_executed, 2u);
  expect_fleet_clean(dir, 2);
  exp::RunnerOptions plain;
  plain.threads = 2;
  EXPECT_EQ(csv_bytes(merge_fleet(dir, scenario)),
            csv_bytes(exp::Runner(plain).run(scenario)));
}

// --------------------------------------------------------------- merge ----

// The real deployment shape: one worker per PROCESS, coordinating only
// through the fleet directory.  fork() gives each worker its own obs
// state and its own crash domain, exactly like production — and keeps
// obs::snapshot()'s quiescence contract, which two in-process workers
// would violate.
TEST(FleetWorker, TwoProcessFleetMergesIdenticallyToASingleProcessRun) {
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "fork()-based multi-process test is unix-only";
#else
  const std::string dir = test_dir("two_workers");
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);

  const auto spawn_worker = [&](const std::string& worker) -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    // Child: run to fleet completion, report through the exit code.
    // Both founders race the election, so the claim grace must be real.
    fleet::WorkerOptions options = worker_options(dir, worker, 2);
    options.stale_claim_seconds = 30.0;
    std::ostringstream sink;
    try {
      const fleet::WorkerReport report =
          fleet::run_worker(scenario, options, sink);
      _exit(report.fleet_complete ? 0 : 2);
    } catch (...) {
      _exit(1);
    }
  };

  const pid_t pid_a = spawn_worker("wa");
  ASSERT_GT(pid_a, 0);
  const pid_t pid_b = spawn_worker("wb");
  ASSERT_GT(pid_b, 0);
  for (const pid_t pid : {pid_a, pid_b}) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  expect_fleet_clean(dir, 2);
  // Both workers wrote their protocol artifacts.
  EXPECT_TRUE(fs::exists(fleet::worker_stats_path(dir, "wa")));
  EXPECT_TRUE(fs::exists(fleet::worker_stats_path(dir, "wb")));

  const exp::SweepSummary merged = merge_fleet(dir, scenario);
  EXPECT_EQ(merged.executed_replicates, 0u);
  EXPECT_TRUE(summaries_identical(merged, reference));
#endif
}

}  // namespace
}  // namespace geogossip
