// Misuse of the sweep harness flags must end in exit code 1 with a
// message — never an abort, and never after the sweep has already run —
// and --fleet-merge folds a fleet's record files into the canonical
// merged file.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_runner.hpp"
#include "exp/scenario.hpp"
#include "exp/schema.hpp"
#include "exp/sweep_cli.hpp"
#include "fleet/plan.hpp"

namespace geogossip {
namespace {

namespace fs = std::filesystem;

std::atomic<int> g_trials{0};

/// Two probe cells whose trials only count themselves, so a test can tell
/// whether any work ran before the misuse was reported.
exp::Scenario counting_scenario() {
  exp::Scenario scenario;
  scenario.name = "sweep-cli-misuse";
  scenario.replicates = 2;
  scenario.master_seed = 3;
  for (const std::size_t n : {std::size_t{16}, std::size_t{32}}) {
    exp::Cell& cell = scenario.add(core::ProtocolKind::kBoydPairwise, n);
    cell.trial = [](const exp::Cell&, std::uint64_t) {
      g_trials.fetch_add(1);
      exp::ReplicateResult result;
      result.converged = true;
      return result;
    };
  }
  return scenario;
}

/// The harness on `args`; the counting scenario unless told otherwise.
CliOutcome run_cli(const std::vector<std::string>& args,
                   const exp::Scenario& scenario = counting_scenario()) {
  return run_sweep_cli(args, scenario);
}

struct MisuseCase {
  const char* name;
  std::vector<std::string> args;
  const char* message;  ///< expected in stderr
};

TEST(SweepCliMisuse, ExitsOneWithAMessageBeforeAnyWork) {
  const fs::path root = fs::path(::testing::TempDir()) / "ggsweepcli";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string missing_dir = (root / "no-such-dir").string();

  const std::vector<MisuseCase> cases = {
      {"fleet without a batch count",
       {"--fleet-dir=" + (root / "fleet-a").string()},
       "--fleet-batches"},
      {"fleet with zero batches",
       {"--fleet-dir=" + (root / "fleet-b").string(), "--fleet-batches=0"},
       "--fleet-batches"},
      {"resume from a missing file",
       {"--resume=" + (root / "missing.jsonl").string()},
       "missing.jsonl"},
      {"resume from a directory",
       {"--resume=" + root.string()},
       "cannot read"},
      {"unwritable --csv",
       {"--csv=" + missing_dir + "/out.csv"},
       "--csv="},
      {"unwritable --json",
       {"--json=" + missing_dir + "/out.jsonl"},
       "--json="},
      {"unwritable --trace",
       {"--trace=" + missing_dir + "/trace.json"},
       "--trace="},
      {"csv path is a directory",
       {"--csv=" + root.string()},
       "--csv="},
      {"fleet merge without a plan",
       {"--fleet-dir=" + root.string(), "--fleet-merge"},
       "holds no plan.json"},
      {"fleet merge with a trace",
       {"--fleet-dir=" + root.string(), "--fleet-merge",
        "--trace=" + (root / "trace.json").string()},
       "--fleet-merge runs nothing"},
      // strtod reads nan and inf; no flag value means them.
      {"nan snapshot cadence",
       {"--snapshot-dir=" + (root / "snaps").string(), "--snapshot-every=nan"},
       "--snapshot-every=nan"},
      {"infinite memory budget",
       {"--mem-budget=inf"},
       "flag --mem-budget expects a finite number, got 'inf'"},
      // Finite, but its byte count overflows uint64_t.
      {"memory budget past 2^64 bytes",
       {"--mem-budget=1e300"},
       "--mem-budget must be >= 0 and below 2^34 GiB (a 64-bit byte count), "
       "got 1e+300"},
      {"negative memory budget", {"--mem-budget=-1"}, "--mem-budget must"},
      {"nan heartbeat interval",
       {"--heartbeat=" + (root / "hb.jsonl").string() + ",nan"},
       "interval must be positive finite seconds"},
      {"infinite fleet lease",
       {"--fleet-dir=" + (root / "fleet-c").string(), "--fleet-batches=2",
        "--fleet-ttl=inf"},
       "flag --fleet-ttl expects a finite number, got 'inf'"},
      // Not flags: the fleet splits a sweep and --fleet-merge merges it.
      {"retired --shard", {"--shard", "0/2"}, "unknown flag --shard"},
      {"retired --merge-only", {"--merge-only"}, "unknown flag --merge-only"},
  };
  for (const MisuseCase& c : cases) {
    SCOPED_TRACE(c.name);
    g_trials = 0;
    const CliOutcome outcome = run_cli(c.args);
    EXPECT_EQ(outcome.exit_code, 1);
    EXPECT_NE(outcome.stderr_text.find(c.message), std::string::npos)
        << "stderr: " << outcome.stderr_text;
    // A user mistake never surfaces as an internal check expression.
    EXPECT_EQ(outcome.stderr_text.find("GG_CHECK"), std::string::npos)
        << "stderr: " << outcome.stderr_text;
    EXPECT_EQ(g_trials.load(), 0) << "work ran before the misuse surfaced";
  }
  // The refused fleet directories were not created.
  EXPECT_FALSE(fs::exists(root / "fleet-a"));
  EXPECT_FALSE(fs::exists(root / "fleet-b"));
  EXPECT_FALSE(fs::exists(root / "fleet-c"));
  // The nan interval was refused, not taken into the heartbeat's path.
  EXPECT_FALSE(fs::exists(root / "hb.jsonl,nan"));
  EXPECT_FALSE(fs::exists(root / "hb.jsonl"));
}

TEST(SweepCliMisuse, WritableOutputsStillRunAndProbesLeaveNoFile) {
  const fs::path root = fs::path(::testing::TempDir()) / "ggsweepcli_ok";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string csv = (root / "out.csv").string();
  g_trials = 0;
  const CliOutcome outcome = run_cli({"--csv=" + csv, "--threads=1"});
  EXPECT_EQ(outcome.exit_code, 0) << outcome.stderr_text;
  EXPECT_EQ(g_trials.load(), 4);
  EXPECT_TRUE(fs::exists(csv));

  // A path probed but never written (the run failed later) is not left
  // behind as an empty file.
  const std::string json = (root / "never.jsonl").string();
  const CliOutcome failed = run_cli(
      {"--json=" + json, "--resume=" + (root / "missing.jsonl").string()});
  EXPECT_EQ(failed.exit_code, 1);
  EXPECT_FALSE(fs::exists(json));
}

// ------------------------------------------------------------ merging ----
// --fleet-merge --json-replicates is the one merge path: on a complete
// fleet it folds every record file under Checkpoint's tolerance policy
// and writes the canonical merged file.  Each test below names the case
// of the retired Python merge tool's self-test it carries over.

/// Three cells of seed-derived results; the n = 64 cell's final error is
/// NaN, so merged records must round-trip non-finite values too.
exp::Scenario merge_scenario() {
  exp::Scenario scenario;
  scenario.name = "sweep-cli-merge";
  scenario.replicates = 3;
  scenario.master_seed = 11;
  for (const std::size_t n :
       {std::size_t{16}, std::size_t{32}, std::size_t{64}}) {
    exp::Cell& cell = scenario.add(core::ProtocolKind::kBoydPairwise, n);
    cell.trial = [](const exp::Cell& c, std::uint64_t seed) {
      exp::ReplicateResult result;
      result.converged = seed % 3 != 0;
      result.final_error = c.n == 64 ? std::numeric_limits<double>::quiet_NaN()
                                     : static_cast<double>(seed % 997) / 997.0;
      result.transmissions.by_category = {seed % 7, seed % 5, 1};
      return result;
    };
  }
  return scenario;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The merge step, which runs nothing: a complete fleet directory folded
/// by --fleet-merge.  Batch b of B runs as shard b/B, so the record file
/// of each batch of a one-worker fleet is that shard's records.
class MergeOnly : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::remove_all(root_);
    fs::create_directories(root_);
    clean_ = sorted_by_key(records({}));
    ASSERT_EQ(std::count(clean_.begin(), clean_.end(), '\n'), 9);
    const std::vector<std::string> halves = batch_records(2);
    ASSERT_EQ(halves.size(), 2u);
    batch0_ = halves[0];
    batch1_ = halves[1];
  }

  /// The replicate records a plain run with `args` streams.
  std::string records(std::vector<std::string> args) {
    const std::string path = (root_ / "run.jsonl").string();
    args.push_back("--json-replicates=" + path);
    args.push_back("--threads=2");
    const CliOutcome outcome = run_cli(args, merge_scenario());
    EXPECT_EQ(outcome.exit_code, 0) << outcome.stderr_text;
    std::string text = slurp(path);
    fs::remove(path);
    return text;
  }

  /// The record file of each batch of a one-worker fleet of `batches`
  /// batches (batch b runs as shard b/batches), in batch order.
  std::vector<std::string> batch_records(std::uint32_t batches) {
    const std::string dir =
        (root_ / ("worker-" + std::to_string(batches))).string();
    const CliOutcome outcome =
        run_cli({"--fleet-dir=" + dir,
                 "--fleet-batches=" + std::to_string(batches),
                 "--fleet-worker=solo", "--threads=2"},
                merge_scenario());
    EXPECT_EQ(outcome.exit_code, 0) << outcome.stderr_text;
    std::vector<std::string> out;
    for (std::uint32_t b = 0; b < batches; ++b) {
      const std::vector<std::string> files =
          fleet::batch_record_files(dir, b);
      EXPECT_EQ(files.size(), 1u) << "batch " << b;
      out.push_back(files.empty() ? "" : slurp(files.front()));
    }
    return out;
  }

  /// Lays out a complete fleet of `batches` batches with the fleet's own
  /// writers — the plan, no ticket left, a done marker per batch — whose
  /// record file i holds contents[i] and belongs to batch i % batches,
  /// then merges it with --fleet-merge, --json-replicates and `extra`.
  CliOutcome merge(const std::vector<std::string>& contents,
                   std::uint32_t batches = 2,
                   const std::vector<std::string>& extra = {}) {
    const std::string dir = (root_ / "fleet").string();
    fs::remove_all(dir);
    fleet::ensure_plan(dir, merge_scenario(), batches);
    for (std::uint32_t b = 0; b < batches; ++b) {
      fs::remove(fleet::queue_ticket_path(dir, b));
    }
    for (std::size_t i = 0; i < contents.size(); ++i) {
      const auto batch = static_cast<std::uint32_t>(i % batches);
      const auto generation = static_cast<std::uint32_t>(i / batches);
      std::ofstream(fleet::records_path(dir, batch, generation, "solo"),
                    std::ios::binary)
          << contents[i];
    }
    for (std::uint32_t b = 0; b < batches; ++b) {
      fleet::write_done_marker(dir, b, "solo",
                               fleet::records_path(dir, b, 0, "solo"), 0);
    }
    std::vector<std::string> args{"--fleet-dir=" + dir, "--fleet-merge",
                                  "--json-replicates=" + merged()};
    args.insert(args.end(), extra.begin(), extra.end());
    return run_cli(args, merge_scenario());
  }

  void expect_merges_to_clean(const std::vector<std::string>& contents,
                              std::uint32_t batches = 2) {
    const CliOutcome outcome = merge(contents, batches);
    EXPECT_EQ(outcome.exit_code, 0) << outcome.stderr_text;
    EXPECT_EQ(slurp(merged()), clean_);
  }

  void expect_merge_fails(const std::vector<std::string>& contents,
                          const std::string& message) {
    const CliOutcome outcome = merge(contents);
    EXPECT_EQ(outcome.exit_code, 1);
    EXPECT_NE(outcome.stderr_text.find(message), std::string::npos)
        << outcome.stderr_text;
  }

  std::string merged() const { return (root_ / "merged.jsonl").string(); }

  const fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("ggsweepcli_merge_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::string clean_;
  std::string batch0_;
  std::string batch1_;
};

// merge_sorted
TEST_F(MergeOnly, ShardFilesMergeToTheUnshardedRecordsSortedByKey) {
  for (const std::uint32_t batches : {2u, 3u}) {
    SCOPED_TRACE(batches);
    const std::vector<std::string> files = batch_records(batches);
    expect_merges_to_clean({files.rbegin(), files.rend()}, batches);
  }
  // The merged file alone merges to itself, with byte-identical summaries.
  const std::string csv_clean = (root_ / "clean.csv").string();
  const std::string csv_merged = (root_ / "merged.csv").string();
  ASSERT_EQ(run_cli({"--csv=" + csv_clean}, merge_scenario()).exit_code, 0);
  const CliOutcome again =
      merge({slurp(merged())}, 1, {"--csv=" + csv_merged});
  EXPECT_EQ(again.exit_code, 0) << again.stderr_text;
  EXPECT_EQ(slurp(merged()), clean_);
  EXPECT_EQ(slurp(csv_merged), slurp(csv_clean));
}

// duplicate_collapses
TEST_F(MergeOnly, DuplicateRecordsCollapse) {
  expect_merges_to_clean({batch0_, batch1_, batch0_});
}

// nan_duplicate_collapses
TEST_F(MergeOnly, DuplicateNaNRecordsCollapse) {
  ASSERT_NE(clean_.find("\"final_error\":NaN"), std::string::npos);
  expect_merges_to_clean({batch0_, batch1_, batch1_, batch0_});
}

// conflict_errors
TEST_F(MergeOnly, ConflictingRecordsExitOne) {
  // The first record of batch 0 again, with its convergence flag flipped.
  std::string conflicting = batch0_.substr(0, batch0_.find('\n') + 1);
  const std::size_t at = conflicting.find("\"converged\":") + 12;
  const bool was_true = conflicting[at] == 't';
  conflicting.replace(at, was_true ? 4 : 5, was_true ? "false" : "true");
  expect_merge_fails({batch0_, batch1_, conflicting}, "conflicting");
}

// schema_current_and_legacy
TEST_F(MergeOnly, StamplessLegacyRecordsMergeWithStampedOnes) {
  const std::string stamp =
      "\"schema\":" + std::to_string(exp::kSchemaVersion) + ",";
  std::string legacy = batch0_;
  for (std::size_t at; (at = legacy.find(stamp)) != std::string::npos;) {
    legacy.erase(at, stamp.size());
  }
  expect_merges_to_clean({legacy, batch1_});
}

// schema_mismatch_errors
TEST_F(MergeOnly, AForeignSchemaStampExitsOne) {
  std::string future = batch0_;
  const std::string stamp =
      "\"schema\":" + std::to_string(exp::kSchemaVersion);
  future.replace(future.find(stamp), stamp.size(), "\"schema\":999");
  expect_merge_fails({future, batch1_}, "schema");
}

// torn_tail
TEST_F(MergeOnly, ATornFinalLineIsTolerated) {
  expect_merges_to_clean({batch0_ + batch1_.substr(0, 20), batch1_});
}

// complete_tail_kept
TEST_F(MergeOnly, AFinalRecordMissingOnlyItsNewlineIsKept) {
  expect_merges_to_clean({batch0_.substr(0, batch0_.size() - 1), batch1_});
}

// interior_garbage
TEST_F(MergeOnly, InteriorGarbageLinesAreSkipped) {
  const std::size_t first_end = batch0_.find('\n') + 1;
  expect_merges_to_clean({batch0_.substr(0, first_end) + "not json\n" +
                              batch0_.substr(first_end),
                          batch1_});
}

// selector_filters
TEST_F(MergeOnly, AnotherSweepsRecordsAreSkipped) {
  std::string other = batch1_;
  for (std::size_t at;
       (at = other.find("sweep-cli-merge")) != std::string::npos;) {
    other.replace(at, 15, "another-sweep");
  }
  expect_merges_to_clean({batch0_ + other, batch1_});
}

// missing_errors
TEST_F(MergeOnly, AHoleInTheGridExitsOne) {
  expect_merge_fails({batch0_}, "replicates missing");
  EXPECT_FALSE(fs::exists(merged()));
}

// stray_records_error
TEST_F(MergeOnly, ARecordOutsideTheGridExitsOne) {
  const std::string wider = records({"--replicates=4"});
  expect_merge_fails({wider}, "outside the 3x3 (cell, replicate) grid");
  EXPECT_FALSE(fs::exists(merged()));
}

// empty_file
TEST_F(MergeOnly, AnEmptyFileMergesAsNothing) {
  expect_merges_to_clean({"", batch0_, batch1_});
}

// summary_lines_ignored
TEST_F(MergeOnly, CellSummaryLinesAreIgnored) {
  const std::string json = (root_ / "cells.jsonl").string();
  ASSERT_EQ(run_cli({"--json=" + json}, merge_scenario()).exit_code, 0);
  const std::string summaries = slurp(json);
  ASSERT_FALSE(summaries.empty());
  expect_merges_to_clean({summaries + batch0_, batch1_});
}

}  // namespace
}  // namespace geogossip
