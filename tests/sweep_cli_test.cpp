// Misuse of the sweep harness flags must end in exit code 1 with a
// message — never an abort, and never after the sweep has already run.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
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

struct CliOutcome {
  int exit_code = 0;
  std::string stderr_text;
};

/// Runs the harness in-process on `args`, the way a driver's main does,
/// capturing stderr.
CliOutcome run_cli(const std::vector<std::string>& args) {
  std::vector<std::string> storage{"sweep_cli_test"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());

  std::ostringstream captured;
  std::streambuf* const saved = std::cerr.rdbuf(captured.rdbuf());
  CliOutcome outcome;
  exp::SweepCli cli("sweep_cli_test", "misuse test");
  if (const auto exit = cli.parse(static_cast<int>(argv.size()),
                                  argv.data())) {
    outcome.exit_code = *exit;
  } else {
    std::ostringstream out;
    outcome.exit_code = cli.run(counting_scenario(), out);
  }
  std::cerr.rdbuf(saved);
  outcome.stderr_text = captured.str();
  return outcome;
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

}  // namespace
}  // namespace geogossip
