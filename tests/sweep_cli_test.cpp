// Misuse of the sweep harness flags must end in exit code 1 with a
// message — never an abort, and never after the sweep has already run —
// and --merge-only folds record files into the canonical merged file.
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
      {"merge-only with a heartbeat",
       {"--merge-only", "--resume=" + (root / "a.jsonl").string(),
        "--heartbeat=" + (root / "hb.jsonl").string()},
       "--merge-only runs nothing"},
  };
  for (const MisuseCase& c : cases) {
    SCOPED_TRACE(c.name);
    g_trials = 0;
    const CliOutcome outcome = run_cli(c.args);
    EXPECT_EQ(outcome.exit_code, 1);
    EXPECT_NE(outcome.stderr_text.find(c.message), std::string::npos)
        << "stderr: " << outcome.stderr_text;
    EXPECT_EQ(g_trials.load(), 0) << "work ran before the misuse surfaced";
  }
  // The refused fleet directories were not created.
  EXPECT_FALSE(fs::exists(root / "fleet-a"));
  EXPECT_FALSE(fs::exists(root / "fleet-b"));
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
// --merge-only --json-replicates is the one merge path: it folds record
// files under Checkpoint's tolerance policy and writes the canonical
// merged file.  Each test below names the case of the retired Python
// merge tool's self-test it carries over.

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

/// The record lines of `text` sorted by (cell_index, replicate).
std::string sorted_by_key(const std::string& text) {
  const auto field = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    return std::stoull(line.substr(at + key.size() + 3));
  };
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end(),
            [&](const std::string& a, const std::string& b) {
              return std::pair(field(a, "cell_index"), field(a, "replicate")) <
                     std::pair(field(b, "cell_index"), field(b, "replicate"));
            });
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

class MergeOnly : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::remove_all(root_);
    fs::create_directories(root_);
    clean_ = sorted_by_key(records({}));
    ASSERT_EQ(std::count(clean_.begin(), clean_.end(), '\n'), 9);
    shard0_ = records({"--shard=0/2"});
    shard1_ = records({"--shard=1/2"});
  }

  /// The replicate records a run with `args` streams.
  std::string records(std::vector<std::string> args) {
    const std::string path = (root_ / "run.jsonl").string();
    args.push_back("--json-replicates=" + path);
    args.push_back("--threads=2");
    const CliOutcome outcome = run_cli(args, merge_scenario());
    EXPECT_EQ(outcome.exit_code, 0) << outcome.stderr_text;
    // A sharded run writes "run.shard-<i>-of-<k>.jsonl".
    for (const auto& entry : fs::directory_iterator(root_)) {
      if (entry.path().filename().string().rfind("run.", 0) == 0) {
        std::string text = slurp(entry.path().string());
        fs::remove(entry.path());
        return text;
      }
    }
    return "";
  }

  /// Writes each of `contents` to its own file and merges them.
  CliOutcome merge(const std::vector<std::string>& contents) {
    std::string resume = "--resume=";
    for (std::size_t i = 0; i < contents.size(); ++i) {
      const std::string path = (root_ / ("in" + std::to_string(i))).string();
      std::ofstream(path, std::ios::binary) << contents[i];
      resume += (i == 0 ? "" : ",") + path;
    }
    return run_cli({"--merge-only", resume, "--json-replicates=" + merged()},
                   merge_scenario());
  }

  void expect_merges_to_clean(const std::vector<std::string>& contents) {
    const CliOutcome outcome = merge(contents);
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
  std::string shard0_;
  std::string shard1_;
};

// merge_sorted
TEST_F(MergeOnly, ShardFilesMergeToTheUnshardedRecordsSortedByKey) {
  for (const std::uint32_t k : {2u, 3u}) {
    SCOPED_TRACE(k);
    std::vector<std::string> shards;
    for (std::uint32_t i = 0; i < k; ++i) {
      shards.push_back(records(
          {"--shard=" + std::to_string(i) + "/" + std::to_string(k)}));
    }
    expect_merges_to_clean({shards.rbegin(), shards.rend()});
  }
  // The merged file alone merges to itself, with byte-identical summaries.
  const std::string csv_clean = (root_ / "clean.csv").string();
  const std::string csv_merged = (root_ / "merged.csv").string();
  ASSERT_EQ(run_cli({"--csv=" + csv_clean}, merge_scenario()).exit_code, 0);
  const CliOutcome again =
      run_cli({"--merge-only", "--resume=" + merged(),
               "--json-replicates=" + merged(), "--csv=" + csv_merged},
              merge_scenario());
  EXPECT_EQ(again.exit_code, 0) << again.stderr_text;
  EXPECT_EQ(slurp(merged()), clean_);
  EXPECT_EQ(slurp(csv_merged), slurp(csv_clean));
}

// duplicate_collapses
TEST_F(MergeOnly, DuplicateRecordsCollapse) {
  expect_merges_to_clean({shard0_, shard1_, shard0_});
}

// nan_duplicate_collapses
TEST_F(MergeOnly, DuplicateNaNRecordsCollapse) {
  ASSERT_NE(clean_.find("\"final_error\":NaN"), std::string::npos);
  expect_merges_to_clean({shard0_, shard1_, shard1_, shard0_});
}

// conflict_errors
TEST_F(MergeOnly, ConflictingRecordsExitOne) {
  // The first record of shard 0 again, with its convergence flag flipped.
  std::string conflicting = shard0_.substr(0, shard0_.find('\n') + 1);
  const std::size_t at = conflicting.find("\"converged\":") + 12;
  const bool was_true = conflicting[at] == 't';
  conflicting.replace(at, was_true ? 4 : 5, was_true ? "false" : "true");
  expect_merge_fails({shard0_, shard1_, conflicting}, "conflicting");
}

// schema_current_and_legacy
TEST_F(MergeOnly, StamplessLegacyRecordsMergeWithStampedOnes) {
  const std::string stamp =
      "\"schema\":" + std::to_string(exp::kSchemaVersion) + ",";
  std::string legacy = shard0_;
  for (std::size_t at; (at = legacy.find(stamp)) != std::string::npos;) {
    legacy.erase(at, stamp.size());
  }
  expect_merges_to_clean({legacy, shard1_});
}

// schema_mismatch_errors
TEST_F(MergeOnly, AForeignSchemaStampExitsOne) {
  std::string future = shard0_;
  const std::string stamp = "\"schema\":" + std::to_string(exp::kSchemaVersion);
  future.replace(future.find(stamp), stamp.size(), "\"schema\":999");
  expect_merge_fails({future, shard1_}, "schema");
}

// torn_tail
TEST_F(MergeOnly, ATornFinalLineIsTolerated) {
  expect_merges_to_clean({shard0_ + shard1_.substr(0, 20), shard1_});
}

// complete_tail_kept
TEST_F(MergeOnly, AFinalRecordMissingOnlyItsNewlineIsKept) {
  expect_merges_to_clean({shard0_.substr(0, shard0_.size() - 1), shard1_});
}

// interior_garbage
TEST_F(MergeOnly, InteriorGarbageLinesAreSkipped) {
  const std::size_t first_end = shard0_.find('\n') + 1;
  expect_merges_to_clean({shard0_.substr(0, first_end) + "not json\n" +
                              shard0_.substr(first_end),
                          shard1_});
}

// selector_filters
TEST_F(MergeOnly, AnotherSweepsRecordsAreSkipped) {
  std::string other = shard1_;
  for (std::size_t at;
       (at = other.find("sweep-cli-merge")) != std::string::npos;) {
    other.replace(at, 15, "another-sweep");
  }
  expect_merges_to_clean({shard0_ + other, shard1_});
}

// missing_errors
TEST_F(MergeOnly, AHoleInTheGridExitsOne) {
  expect_merge_fails({shard0_}, "replicates missing");
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
  expect_merges_to_clean({"", shard0_, shard1_});
}

// summary_lines_ignored
TEST_F(MergeOnly, CellSummaryLinesAreIgnored) {
  const std::string json = (root_ / "cells.jsonl").string();
  ASSERT_EQ(run_cli({"--json=" + json}, merge_scenario()).exit_code, 0);
  const std::string summaries = slurp(json);
  ASSERT_FALSE(summaries.empty());
  expect_merges_to_clean({summaries + shard0_, shard1_});
}

}  // namespace
}  // namespace geogossip
