// Tests for the fleet directory reader (fleet/status.hpp): the board
// print_status renders and every invariant violations() checks, on fleet
// directories laid out by the fleet's own writers (ensure_plan, the lease
// store, done markers, durable-file temps).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_runner.hpp"
#include "exp/scenario.hpp"
#include "exp/schema.hpp"
#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "fleet/status.hpp"
#include "support/check.hpp"
#include "support/durable_file.hpp"

namespace geogossip {
namespace {

namespace fs = std::filesystem;

exp::Scenario status_scenario() {
  exp::Scenario scenario;
  scenario.name = "fleet-status";
  scenario.replicates = 2;
  scenario.master_seed = 5;
  scenario.add(core::ProtocolKind::kBoydPairwise, 16);
  scenario.add(core::ProtocolKind::kBoydPairwise, 32);
  return scenario;
}

/// A freshly founded fleet: plan, layout and one ticket per batch.
std::string fresh_fleet(const std::string& leaf, std::uint32_t batches = 2) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ggstatus_" + leaf);
  fs::remove_all(dir);
  fleet::EnsurePlanOptions options;
  options.stale_claim_seconds = 0.0;
  fleet::ensure_plan(dir.string(), status_scenario(), batches, options);
  return dir.string();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << "failed writing " << path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void claim(const std::string& dir, std::uint32_t batch,
           const std::string& owner) {
  ASSERT_TRUE(fleet::LeaseStore(dir)
                  .try_claim(batch, owner, 3600.0, "hb/" + owner + ".jsonl")
                  .has_value());
}

std::string board(const std::string& dir) {
  std::ostringstream out;
  fleet::print_status(out, fleet::inspect(dir));
  return out.str();
}

std::vector<std::string> problems(const std::string& dir) {
  return fleet::violations(fleet::inspect(dir),
                           fleet::LeaseStore::now_unix_ms());
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

/// Both batches claimed by "w", recorded, marked done and swept — the
/// state a worker leaves when it completes the fleet.
std::string complete_fleet(const std::string& leaf) {
  const std::string dir = fresh_fleet(leaf);
  const fleet::LeaseStore store(dir);
  for (const std::uint32_t batch : {0u, 1u}) {
    claim(dir, batch, "w");
    spit(fleet::records_path(dir, batch, 0, "w"), "");
    fleet::write_done_marker(dir, batch, "w", "records/x.jsonl", 2);
    store.remove_lease_files(batch);
  }
  return dir;
}

TEST(FleetStatus, LiveFleetValidatesAndRenders) {
  const std::string dir = fresh_fleet("live");
  claim(dir, 0, "w");
  spit(fleet::records_path(dir, 0, 0, "w"), "");
  spit(fleet::heartbeat_path(dir, "w"),
       "{\"record\":\"heartbeat\",\"completed\":1,\"total\":2,"
       "\"leases\":[\"batch-0.g0\"],\"seq\":3}\n");

  EXPECT_TRUE(problems(dir).empty());  // live_validates
  const std::string text = board(dir);  // live_renders
  EXPECT_TRUE(contains(text, "batch 0: leased: g0 w (")) << text;
  EXPECT_TRUE(contains(text, "s left), 1 record file(s)")) << text;
  EXPECT_TRUE(contains(text, "batch 1: queued")) << text;
  EXPECT_TRUE(contains(text, "worker w: 1/2 replicates, leases batch-0.g0"))
      << text;
  EXPECT_TRUE(contains(text, "progress: 0/2 batch(es) done\n")) << text;
}

TEST(FleetStatus, AWorkerHoldingTwoLeasesShowsBoth) {
  const std::string dir = fresh_fleet("overlap");
  claim(dir, 0, "w");
  claim(dir, 1, "w");
  // Only the heartbeat's last line counts.
  spit(fleet::heartbeat_path(dir, "w"),
       "{\"completed\":0,\"total\":4,\"leases\":[\"batch-0.g0\"],\"seq\":4}\n"
       "{\"completed\":1,\"total\":4,"
       "\"leases\":[\"batch-0.g0\",\"batch-1.g0\"],\"seq\":5}\n");
  spit(fleet::heartbeat_path(dir, "old"),
       "{\"completed\":0,\"total\":2,\"lease\":\"batch-1.g0\",\"seq\":1}\n");

  EXPECT_TRUE(problems(dir).empty());  // two_leases_validate
  const std::string text = board(dir);
  // two_leases_render
  EXPECT_TRUE(contains(text, "batch 0: leased")) << text;
  EXPECT_TRUE(contains(text, "batch 1: leased")) << text;
  EXPECT_TRUE(contains(
      text, "worker w: 1/4 replicates, leases batch-0.g0, batch-1.g0\n"))
      << text;
  // single_lease_key_renders
  EXPECT_TRUE(contains(text, "worker old: 0/2 replicates, leases batch-1.g0"))
      << text;
}

TEST(FleetStatus, AnExpiredLeaseRendersButIsNoViolation) {
  const std::string dir = fresh_fleet("expired");
  const std::string lease = fleet::leases_dir(dir) + "/" +
                            fleet::lease_filename(0, 0, "w");
  fs::rename(fleet::queue_ticket_path(dir, 0), lease);
  spit(lease, "{\"record\":\"fleet_lease\",\"expires_unix_ms\":1}\n");

  const std::string text = board(dir);
  EXPECT_TRUE(contains(text, "batch 0: leased: g0 w (EXPIRED ")) << text;
  EXPECT_TRUE(problems(dir).empty());  // expired_not_a_violation
}

TEST(FleetStatus, AnUnreadableLeaseReadsAsNeverRenewed) {
  const std::string dir = fresh_fleet("unrenewed", 1);
  const std::string lease = fleet::leases_dir(dir) + "/" +
                            fleet::lease_filename(0, 0, "w");
  fs::rename(fleet::queue_ticket_path(dir, 0), lease);
  spit(lease, "not json at all");
  EXPECT_TRUE(contains(board(dir), "(never renewed — reclaimable)"))
      << board(dir);
}

TEST(FleetStatus, DirectoriesAtHeartbeatAndDoneMarkerPathsReadAsUnreadable) {
  const std::string dir = fresh_fleet("directories", 1);
  fs::create_directories(fs::path(fleet::hb_dir(dir)) / "w.jsonl");
  fs::create_directories(fleet::done_marker_path(dir, 0));
  const std::string text = board(dir);
  EXPECT_TRUE(contains(text, "worker w: heartbeat unreadable")) << text;
  EXPECT_TRUE(contains(text, "batch 0: done (by ?)")) << text;
}

TEST(FleetStatus, ACompleteCleanFleetPassesAndRendersComplete) {
  const std::string dir = complete_fleet("complete");
  EXPECT_TRUE(problems(dir).empty());  // complete_clean_ok
  const std::string text = board(dir);  // complete_renders
  EXPECT_TRUE(contains(text, "progress: 2/2 batch(es) done — COMPLETE"))
      << text;
  EXPECT_TRUE(contains(text, "batch 1: done (by w), 1 record file(s)"))
      << text;
}

TEST(FleetStatus, EachPieceOfResidueOnACompleteFleetIsOneViolation) {
  struct Residue {
    const char* name;
    void (*leave)(const std::string& dir);
    const char* needle;
  };
  const Residue cases[] = {
      {"residue_lease",
       [](const std::string& dir) {
         spit(fleet::leases_dir(dir) + "/" + fleet::lease_filename(0, 1, "w"),
              "{\"record\":\"fleet_lease\",\"expires_unix_ms\":0}\n");
       },
       "lease leases/batch-0.g1.w.lease"},
      {"residue_ticket",
       [](const std::string& dir) { fleet::requeue_batch(dir, 0); },
       "queue ticket for batch 0"},
      {"residue_snap",
       [](const std::string& dir) {
         spit(fleet::snaps_dir(dir) + "/snap-c0-r0.ggsnap", "x");
       },
       "parked snapshot snaps/snap-c0-r0.ggsnap"},
      {"residue_tmp",
       [](const std::string& dir) {
         spit(durable_temp_path(fleet::records_path(dir, 0, 0, "w")), "x");
       },
       "temp debris records/batch-0.g0.w.jsonl.tmp."},
  };
  for (const Residue& residue : cases) {
    SCOPED_TRACE(residue.name);
    const std::string dir = complete_fleet(residue.name);
    residue.leave(dir);
    const std::vector<std::string> found = problems(dir);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_TRUE(contains(found[0], "complete fleet still has")) << found[0];
    EXPECT_TRUE(contains(found[0], residue.needle)) << found[0];
  }
}

TEST(FleetStatus, AStrandedBatchIsAViolation) {
  const std::string dir = fresh_fleet("stranded");
  fs::remove(fleet::queue_ticket_path(dir, 0));
  const std::vector<std::string> found = problems(dir);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(contains(found[0], "batch 0 is stranded")) << found[0];
  EXPECT_TRUE(contains(board(dir), "batch 0: STRANDED")) << board(dir);
}

TEST(FleetStatus, BatchIdsMustLieInsideANonEmptyPlan) {
  const std::string dir = fresh_fleet("outside");
  fleet::requeue_batch(dir, 5);
  std::vector<std::string> found = problems(dir);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], "batch 5 is outside the plan's 2 batch(es)");

  std::string plan = slurp(fleet::plan_path(dir));
  plan.replace(plan.find("\"batches\":2"), 11, "\"batches\":0");
  spit(fleet::plan_path(dir), plan);
  found = problems(dir);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0], "plan declares no batches");
}

TEST(FleetStatus, SchemaDriftAndAMissingPlanAreErrors) {
  const std::string dir = fresh_fleet("drift");
  std::string plan = slurp(fleet::plan_path(dir));
  const std::string stamp =
      "\"schema\":" + std::to_string(exp::kSchemaVersion);
  plan.replace(plan.find(stamp), stamp.size(),
               "\"schema\":" + std::to_string(exp::kSchemaVersion + 1));
  spit(fleet::plan_path(dir), plan);
  EXPECT_THROW(fleet::inspect(dir), ArgumentError);
  // schema_drift: --fleet-merge exits 1 naming the schema.
  const CliOutcome merge = run_sweep_cli(
      {"--fleet-dir=" + dir, "--fleet-merge"}, status_scenario());
  EXPECT_EQ(merge.exit_code, 1);
  EXPECT_TRUE(contains(merge.stderr_text, "schema")) << merge.stderr_text;

  // missing_plan_errors
  const fs::path empty = fs::path(::testing::TempDir()) / "ggstatus_empty";
  fs::remove_all(empty);
  fs::create_directories(empty);
  EXPECT_THROW(fleet::inspect(empty.string()), ArgumentError);
}

TEST(FleetStatus, OnlyStaleTempsOfAFleetInFlightAreViolations) {
  const std::string dir = fresh_fleet("in_flight");
  const std::string temp =
      durable_temp_path(fleet::heartbeat_path(dir, "w"));
  spit(temp, "half a heartbeat");
  EXPECT_TRUE(problems(dir).empty());  // fresh_tmp_ok
  EXPECT_TRUE(contains(board(dir), "temp files in flight: 1")) << board(dir);

  fs::last_write_time(temp, fs::file_time_type::clock::now() -
                                std::chrono::seconds(400));
  const std::vector<std::string> found = problems(dir);  // stale_tmp_flagged
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(contains(found[0], "stale temp file hb/w.jsonl.tmp."))
      << found[0];
}

}  // namespace
}  // namespace geogossip
