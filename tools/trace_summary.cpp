// Summarizes and checks the Chrome trace and heartbeat file of a sweep.
//
//   trace_summary trace.json [--top 10] [--validate]
//                 [--heartbeat hb.jsonl [--expect-complete]]
//
// parallel_sweep --trace=FILE (and bench/kernels --trace=FILE) write the
// trace; --heartbeat=FILE,SECONDS writes the heartbeat file.  Prints the
// per-phase wall totals, the slowest replicate spans and the counter
// totals; --validate checks the trace's span structure and --heartbeat
// the heartbeat file (the rules are listed in src/obs/trace_check.hpp).
// Exit codes: 0 ok, 1 a check failed (listed on stderr), 2 usage error or
// a trace that cannot be read.
#include <cstdint>
#include <iostream>
#include <string>

#include "obs/trace_check.hpp"
#include "support/cli.hpp"

namespace gg = geogossip;

int main(int argc, char** argv) {
  std::int64_t top = 10;
  gg::obs::TraceSummaryOptions options;
  gg::ArgParser parser("trace_summary",
                       "summarize and check a Chrome trace (positional "
                       "argument) and a heartbeat file");
  parser.add_flag("top", &top, "slowest replicates to list");
  parser.add_flag("validate", &options.validate,
                  "check span structure (cell/replicate nesting)");
  parser.add_flag("heartbeat", &options.heartbeat,
                  "also check this heartbeat JSONL file");
  parser.add_flag("expect-complete", &options.expect_complete,
                  "require the final heartbeat to be complete");
  const gg::ParseResult parse = parser.parse(argc, argv);
  if (parse == gg::ParseResult::kHelp) return 0;
  if (parse == gg::ParseResult::kError) return 2;
  if (parser.positional().size() != 1 || top < 0) {
    std::cerr << "trace_summary: expects one trace file and --top >= 0\n";
    return 2;
  }
  options.trace = parser.positional().front();
  options.top = static_cast<std::size_t>(top);
  return gg::obs::run_trace_summary(options, std::cout, std::cerr);
}
