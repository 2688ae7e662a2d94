// e2e_bench: the end-to-end benchmark of record.
//
//   e2e_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--threads=4] [--tiny] [--workdir=DIR] [--trace-out=FILE]
//
// Runs one workload in this process, checks its outputs, prints a
// readable report and, as the last stdout line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Tracing off (--trace=0) the metrics are the end-to-end ones; --trace=1
// prints the per-layer ones instead.  Exit code 1 when a correctness gate
// failed or the run threw.  See README.md beside this file.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "workloads.hpp"

namespace gg = geogossip;

int main(int argc, char** argv) {
  std::string workload;
  std::int64_t seed = 1;
  double seconds = 10.0;
  std::int64_t trace = 0;
  std::int64_t threads = 4;
  bool tiny = false;
  std::string workdir;
  std::string trace_out;

  gg::ArgParser parser("e2e_bench", "end-to-end benchmark of record");
  parser.add_flag("workload", &workload,
                  "sweep-baselines | sweep-affine | sweep-durable | "
                  "scale-2e18 (the last is not in BENCHMARK.json)");
  parser.add_flag("seed", &seed, "master seed of the workload's inputs");
  parser.add_flag("seconds", &seconds, "length of the timed phase");
  parser.add_flag("trace", &trace,
                  "0 = end-to-end metrics, tracing off; 1 = per-layer "
                  "metrics from a traced run");
  parser.add_flag("threads", &threads, "compute threads (runner, pool)");
  parser.add_flag("tiny", &tiny, "shrunken inputs (self-test)");
  parser.add_flag("workdir", &workdir,
                  "working directory for sinks, snapshots and fleet dirs "
                  "(created; emptied by the caller)");
  parser.add_flag("trace-out", &trace_out,
                  "with --trace=1: write a Chrome trace here");
  const auto parsed = parser.parse(argc, argv);
  if (parsed != gg::ParseResult::kOk) return gg::parse_exit_code(parsed);

  const std::vector<std::string> names{"sweep-baselines", "sweep-affine",
                                       "sweep-durable", "scale-2e18"};
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    std::cerr << "e2e_bench: unknown --workload '" << workload << "'\n";
    return 1;
  }
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      threads < 1 || threads > 64 || workdir.empty()) {
    std::cerr << "e2e_bench: need --seed >= 0, --seconds > 0, --trace 0|1, "
                 "--threads in [1, 64] and --workdir\n";
    return 1;
  }

  e2e::RunSpec spec;
  spec.workload = workload;
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.seconds = seconds;
  spec.trace = trace == 1;
  spec.threads = static_cast<unsigned>(threads);
  spec.tiny = tiny;
  spec.workdir = workdir;
  spec.trace_out = trace_out;

  e2e::Ledger ledger(spec.trace);
  e2e::Outcome outcome;
  try {
    std::filesystem::create_directories(workdir);
    if (workload == "scale-2e18") {
      e2e::run_scale_workload(spec, ledger, outcome);
    } else {
      e2e::run_sweep_workload(spec, ledger, outcome);
    }
  } catch (const std::exception& error) {
    std::cerr << "e2e_bench: " << workload << " failed: " << error.what()
              << "\n";
    return 1;
  }
  for (const auto& entry : ledger.entries()) {
    if (!std::isfinite(entry.value)) {
      outcome.gate_failed("metric " + entry.name + " is not finite");
    }
  }
  if (outcome.attempted == 0) outcome.gate_failed("no operation attempted");

  std::cout << "workload " << workload << "  seed " << spec.seed
            << "  threads " << spec.threads
            << (spec.trace ? "  (traced: per-layer metrics)" : "") << "\n";
  for (const auto& entry : ledger.entries()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n",
                  entry.name.c_str(), entry.value, entry.unit.c_str());
    std::cout << line;
  }
  std::cout << "  fail_frac " << outcome.failed << "/" << outcome.attempted
            << " = "
            << static_cast<double>(outcome.failed) /
                   static_cast<double>(std::max<std::uint64_t>(
                       outcome.attempted, 1))
            << "\n";
  for (const std::string& error : outcome.errors) {
    std::cout << "  GATE FAILED: " << error << "\n";
  }
  std::cout << e2e::result_json(outcome, ledger) << std::endl;
  return outcome.correct ? 0 : 1;
}
