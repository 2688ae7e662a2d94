// Tests for the reader of the trace and the heartbeat (obs/trace_check):
// the summary, the span rules, the heartbeat rules and the exit codes of
// the trace_summary command, on hand-built fixtures; then mutants of a
// real trace and a real heartbeat file, each of which must come back as a
// summary, a listed violation or an unreadable trace — never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/heartbeat.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_check.hpp"
#include "obs/trace_export.hpp"
#include "support/rng.hpp"

namespace geogossip {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ fixtures ----

/// One complete span; `args` is the inside of its args object ("" for
/// none).
std::string span(const std::string& name, int ts, int dur, int tid,
                 const std::string& args = "") {
  std::string event = "{\"name\":\"" + name +
                      "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
                      std::to_string(tid) + ",\"ts\":" + std::to_string(ts) +
                      ",\"dur\":" + std::to_string(dur);
  if (!args.empty()) event += ",\"args\":{" + args + "}";
  return event + "}";
}

std::string trace_of(const std::vector<std::string>& events,
                     const std::string& counters = "") {
  std::string text = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    text += (i == 0 ? "" : ",") + events[i];
  }
  return text +
         "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":0,"
         "\"counters\":{" +
         counters + "}}}";
}

/// Two replicates of cell 0, each with its graph build and routing mirror
/// nested on lane 1, inside the cell envelope on lane 0.
std::vector<std::string> valid_events() {
  return {span("cell", 0, 1000, 0, "\"cell\":0,\"n\":64"),
          span("replicate", 0, 450, 1, "\"cell\":0,\"replicate\":0"),
          span("graph_build", 10, 100, 1, "\"n\":64"),
          span("routing_mirror", 120, 50, 1, "\"n\":64"),
          span("replicate", 500, 400, 1, "\"cell\":0,\"replicate\":1"),
          span("graph_build", 510, 90, 1, "\"n\":64"),
          span("routing_mirror", 610, 40, 1, "\"n\":64")};
}

const std::string& valid_trace() {
  static const std::string text =
      trace_of(valid_events(), "\"routing.hops\":42");
  return text;
}

/// One heartbeat line with every schema key; `record` replaces the
/// record kind.
std::string beat(int seq, int completed, int total,
                 const std::string& record = "heartbeat") {
  return "{\"record\":\"" + record +
         "\",\"scenario\":\"s\",\"shard_index\":0,\"shard_count\":1,"
         "\"completed\":" +
         std::to_string(completed) + ",\"total\":" + std::to_string(total) +
         ",\"cell\":0,\"replicate\":0,\"rss_kb\":1000,\"flush_unix_ms\":" +
         std::to_string(1700000000000 + seq) +
         ",\"seq\":" + std::to_string(seq) + "}";
}

struct Outcome {
  int code = -1;
  std::string out;
  std::string err;
};

/// run_trace_summary on `trace_text` (and `heartbeat_text`, when given)
/// written to files of the running test's own directory (ctest runs the
/// tests as concurrent processes).
Outcome summarize(const std::string& trace_text,
                  obs::TraceSummaryOptions options = {},
                  const std::optional<std::string>& heartbeat_text = {}) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("ggtrace_check_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::create_directories(dir);
  options.trace = (dir / "trace.json").string();
  std::ofstream(options.trace, std::ios::binary | std::ios::trunc)
      << trace_text;
  if (heartbeat_text) {
    options.heartbeat = (dir / "heartbeat.jsonl").string();
    std::ofstream(options.heartbeat, std::ios::binary | std::ios::trunc)
        << *heartbeat_text;
  }
  std::ostringstream out;
  std::ostringstream err;
  Outcome outcome;
  outcome.code = obs::run_trace_summary(options, out, err);
  outcome.out = out.str();
  outcome.err = err.str();
  return outcome;
}

obs::TraceSummaryOptions validate_top(std::size_t top) {
  obs::TraceSummaryOptions options;
  options.validate = true;
  options.top = top;
  return options;
}

obs::TraceSummaryOptions expect_complete() {
  obs::TraceSummaryOptions options;
  options.expect_complete = true;
  return options;
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

// ------------------------------------------------------ summary and rules --

TEST(TraceSummary, ValidTraceOk) {
  const Outcome outcome = summarize(valid_trace(), validate_top(1));
  EXPECT_EQ(outcome.code, 0) << outcome.err;
  EXPECT_TRUE(contains(outcome.out, "validation: ok")) << outcome.out;
}

TEST(TraceSummary, PhaseTotalsListed) {
  const Outcome outcome = summarize(valid_trace(), validate_top(1));
  EXPECT_TRUE(contains(outcome.out, "graph_build")) << outcome.out;
  EXPECT_TRUE(contains(outcome.out, "cell")) << outcome.out;
  // Phases by descending total; cell 1000 us, replicate 850 us.
  EXPECT_TRUE(contains(outcome.out,
                       "  cell            total      1.000 ms  count      1"
                       "  mean     1.000 ms\n"
                       "  replicate       total      0.850 ms  count      2"
                       "  mean     0.425 ms\n"))
      << outcome.out;
}

TEST(TraceSummary, CountersListed) {
  const Outcome outcome = summarize(valid_trace(), validate_top(1));
  EXPECT_TRUE(contains(outcome.out, "counters:\n  routing.hops  42\n"))
      << outcome.out;
}

TEST(TraceSummary, TopKRespected) {
  const Outcome outcome = summarize(valid_trace(), validate_top(1));
  std::istringstream lines(outcome.out);
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  cell ", 0) == 0 && contains(line, " replicate ")) {
      ++rows;
    }
  }
  EXPECT_EQ(rows, 1u) << outcome.out;
  EXPECT_TRUE(contains(outcome.out,
                       "top 1 slowest replicates:\n"
                       "  cell    0 replicate    0      0.450 ms\n"))
      << outcome.out;
}

TEST(TraceSummary, EscapedReplicateFails) {
  std::vector<std::string> events = valid_events();
  events[4] = span("replicate", 2000, 400, 1, "\"cell\":0,\"replicate\":1");
  const Outcome outcome = summarize(trace_of(events), validate_top(10));
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "not enclosed")) << outcome.err;
}

TEST(TraceSummary, MissingPhaseFails) {
  std::vector<std::string> events;
  for (const std::string& event : valid_events()) {
    if (!contains(event, "routing_mirror")) events.push_back(event);
  }
  const Outcome outcome = summarize(trace_of(events), validate_top(10));
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "routing_mirror")) << outcome.err;
}

TEST(TraceSummary, MirrorSpanIsOwedOnlyOnceAHopRanOnAMirror) {
  // A sweep whose every hop scanned the CSR row (routing.unmirrored_hops
  // equals routing.hops), or that never routed (both counters written as
  // zero), built no mirror and owes no routing_mirror span; mirrored hops
  // make the span owed again.
  std::vector<std::string> events;
  for (const std::string& event : valid_events()) {
    if (!contains(event, "routing_mirror")) events.push_back(event);
  }
  for (const char* counters :
       {"\"routing.hops\":42,\"routing.unmirrored_hops\":42",
        "\"routing.routes\":0,\"routing.hops\":0,"
        "\"routing.unmirrored_hops\":0"}) {
    const Outcome csr_only =
        summarize(trace_of(events, counters), validate_top(10));
    EXPECT_EQ(csr_only.code, 0) << counters << ": " << csr_only.err;
  }
  for (const char* counters :
       {"\"routing.hops\":42,\"routing.unmirrored_hops\":41",
        "\"routing.routes\":3,\"routing.hops\":42,"
        "\"routing.unmirrored_hops\":0"}) {
    const Outcome mirrored =
        summarize(trace_of(events, counters), validate_top(10));
    EXPECT_EQ(mirrored.code, 1) << counters;
    EXPECT_TRUE(contains(mirrored.err, "routing_mirror")) << mirrored.err;
  }
  // A mirror span that exists must still nest inside a replicate.
  std::vector<std::string> escaped = events;
  escaped.push_back(span("routing_mirror", 2000, 40, 1, "\"n\":64"));
  const Outcome stray = summarize(
      trace_of(escaped, "\"routing.hops\":42,\"routing.unmirrored_hops\":42"),
      validate_top(10));
  EXPECT_EQ(stray.code, 1);
  EXPECT_TRUE(contains(stray.err, "routing_mirror")) << stray.err;
}

TEST(TraceSummary, ArglessReplicateFails) {
  std::vector<std::string> events = valid_events();
  events[1] = span("replicate", 0, 450, 1);
  events[4] = span("replicate", 500, 400, 1);
  const Outcome outcome = summarize(trace_of(events), validate_top(10));
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "args")) << outcome.err;
}

TEST(TraceSummary, NoReplicatesFails) {
  const Outcome outcome =
      summarize(trace_of({span("cell", 0, 10, 0)}), validate_top(10));
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "no replicate")) << outcome.err;
}

TEST(TraceSummary, NotATrace) {
  const Outcome outcome = summarize("{}");
  EXPECT_EQ(outcome.code, 2);
  EXPECT_TRUE(contains(outcome.err, "traceEvents")) << outcome.err;
}

TEST(TraceSummary, UnparsableTrace) {
  EXPECT_EQ(summarize("not json").code, 2);
  obs::TraceSummaryOptions missing;
  missing.trace = (fs::path(::testing::TempDir()) / "no_such_trace.json")
                      .string();
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(obs::run_trace_summary(missing, out, err), 2);
}

TEST(TraceSummary, UnreadableFilesAreReportedNotThrown) {
  const std::string dir = ::testing::TempDir();
  obs::TraceSummaryOptions options;
  options.trace = dir;  // a directory opens, then fails to read
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(obs::run_trace_summary(options, out, err), 2);
  EXPECT_TRUE(contains(err.str(), "cannot read")) << err.str();

  const fs::path trace = fs::path(dir) / "ggtrace_check_readable.json";
  std::ofstream(trace, std::ios::binary | std::ios::trunc) << valid_trace();
  options.trace = trace.string();
  options.heartbeat = dir;
  err.str("");
  EXPECT_EQ(obs::run_trace_summary(options, out, err), 1);
  EXPECT_TRUE(contains(err.str(), "heartbeat validation: " + dir +
                                      ": cannot read"))
      << err.str();
  fs::remove(trace);
}

// ------------------------------------------------------------ heartbeat ----

const std::string& healthy_heartbeat() {
  static const std::string text =
      beat(0, 0, 4) + "\n" + beat(1, 2, 4) + "\n" + beat(2, 4, 4) + "\n";
  return text;
}

TEST(TraceSummary, HeartbeatOk) {
  const Outcome outcome = summarize(valid_trace(), {}, healthy_heartbeat());
  EXPECT_EQ(outcome.code, 0) << outcome.err;
  EXPECT_TRUE(contains(outcome.out, "validation: ok")) << outcome.out;
}

TEST(TraceSummary, CompleteOk) {
  EXPECT_EQ(summarize(valid_trace(), expect_complete(), healthy_heartbeat())
                .code,
            0);
}

TEST(TraceSummary, IncompleteFails) {
  const std::string alive = beat(0, 0, 4) + "\n" + beat(1, 2, 4) + "\n";
  const Outcome outcome = summarize(valid_trace(), expect_complete(), alive);
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "did not complete")) << outcome.err;
  // Merely alive is fine without --expect-complete.
  EXPECT_EQ(summarize(valid_trace(), {}, alive).code, 0);
}

TEST(TraceSummary, TornLineFails) {
  const std::string torn =
      beat(0, 0, 4) + "\n" + beat(1, 2, 4).substr(0, 15) + "\n";
  const Outcome outcome = summarize(valid_trace(), {}, torn);
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "unparsable")) << outcome.err;
}

TEST(TraceSummary, MissingKeysFail) {
  const Outcome outcome =
      summarize(valid_trace(), {}, "{\"record\":\"heartbeat\",\"seq\":0}\n");
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "missing keys")) << outcome.err;
}

TEST(TraceSummary, SeqGapFails) {
  const Outcome outcome = summarize(valid_trace(), {},
                                    beat(0, 0, 4) + "\n" + beat(2, 1, 4) +
                                        "\n");
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "seq")) << outcome.err;
}

TEST(TraceSummary, OverflowFails) {
  const Outcome outcome = summarize(valid_trace(), {}, beat(0, 9, 4) + "\n");
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, ">")) << outcome.err;
}

TEST(TraceSummary, EmptyHeartbeatFails) {
  const Outcome outcome = summarize(valid_trace(), {}, "");
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "empty")) << outcome.err;
}

TEST(TraceSummary, BackwardsCompletedFails) {
  const Outcome outcome = summarize(valid_trace(), {},
                                    beat(0, 3, 4) + "\n" + beat(1, 2, 4) +
                                        "\n");
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "completed went backwards (3 -> 2)"))
      << outcome.err;
}

TEST(TraceSummary, ForeignRecordFails) {
  const Outcome outcome =
      summarize(valid_trace(), {}, beat(0, 0, 4, "fleet_lease") + "\n");
  EXPECT_EQ(outcome.code, 1);
  EXPECT_TRUE(contains(outcome.err, "record != heartbeat")) << outcome.err;
}

// ------------------------------------------------------------- mutants ----

enum class Read { kSummary, kViolation, kUnreadable };

Read read_trace(const std::string& text) {
  obs::Trace trace;
  try {
    trace = obs::parse_trace(text);
  } catch (const obs::TraceFormatError&) {
    return Read::kUnreadable;
  }
  std::ostringstream out;
  obs::print_trace_summary(out, trace, 5);
  return obs::trace_violations(trace).empty() ? Read::kSummary
                                              : Read::kViolation;
}

/// A prefix of `a` joined to a suffix of `b`, at random cut points.
std::string splice(const std::string& a, const std::string& b, Rng& rng) {
  return a.substr(0, rng.below(a.size() + 1)) +
         b.substr(rng.below(b.size() + 1));
}

std::string flip(std::string bytes, Rng& rng) {
  const std::size_t at = rng.below(bytes.size());
  bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8)));
  return bytes;
}

/// A real heartbeat file: a fleet-style writer (worker and leases keys)
/// beating every 10 ms while it notes progress.
std::string real_heartbeat() {
  const fs::path path =
      fs::path(::testing::TempDir()) / "ggtrace_check_hb.jsonl";
  fs::remove(path);
  obs::Heartbeat::Options options;
  options.path = path.string();
  options.interval_seconds = 0.01;
  options.scenario = "mutants";
  options.total_replicates = 4;
  options.worker = "w1";
  {
    obs::Heartbeat heartbeat(options);
    heartbeat.add_lease("batch-0.g0");
    for (int r = 0; r < 4; ++r) {
      heartbeat.note_start(0, r);
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      heartbeat.note_done();
    }
    heartbeat.remove_lease("batch-0.g0");
    heartbeat.stop();
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  fs::remove(path);
  return text.str();
}

TEST(TraceMutation, HeartbeatMutantsAreListedNeverThrown) {
  const std::string text = real_heartbeat();
  ASSERT_GE(std::count(text.begin(), text.end(), '\n'), 2) << text;
  ASSERT_TRUE(obs::heartbeat_violations(text, "hb", true).empty()) << text;

  // A cut leaves the file whole only right after a line's closing brace
  // or its newline; anywhere else the last line is torn.
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const bool whole =
        cut > 0 && (text[cut - 1] == '}' || text[cut - 1] == '\n');
    const auto problems =
        obs::heartbeat_violations(text.substr(0, cut), "hb", false);
    EXPECT_EQ(problems.empty(), whole) << "cut " << cut;
  }

  Rng rng(18);
  const std::string trace = valid_trace();
  for (int i = 0; i < 2000; ++i) {
    const std::string mutant =
        i % 4 == 0 ? splice(text, i % 8 == 0 ? trace : text, rng)
                   : flip(text, rng);
    (void)obs::heartbeat_violations(mutant, "hb", i % 2 == 0);
  }
}

#if !defined(GEOGOSSIP_OBS_DISABLE)

/// A real trace: a small two-cell sweep recorded and exported.
std::string real_trace() {
  obs::reset();
  obs::set_enabled(true);
  exp::Scenario scenario;
  scenario.name = "trace-mutants";
  scenario.replicates = 2;
  scenario.master_seed = 18;
  scenario.add("geographic", core::ProtocolKind::kDimakisGeographic, 64);
  scenario.add("pairwise", core::ProtocolKind::kBoydPairwise, 64);
  exp::RunnerOptions options;
  options.threads = 2;
  exp::Runner(options).run(scenario);
  obs::set_enabled(false);
  std::ostringstream out;
  obs::write_chrome_trace(out, obs::snapshot(), "trace_check_test");
  obs::reset();
  return out.str();
}

TEST(TraceMutation, TraceMutantsAreSummariesViolationsOrUnreadable) {
  const std::string text = real_trace();
  ASSERT_EQ(read_trace(text), Read::kSummary);

  // Every cut short of the closing brace leaves the document unclosed.
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    const bool whole = cut > 0 && text[cut - 1] == '}' &&
                       text.find_first_not_of(" \n", cut) == std::string::npos;
    EXPECT_EQ(read_trace(text.substr(0, cut)),
              whole ? Read::kSummary : Read::kUnreadable)
        << "cut " << cut;
  }

  Rng rng(1818);
  const std::string heartbeat = beat(0, 0, 4) + "\n";
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    const std::string mutant =
        i % 4 == 0 ? splice(text, i % 8 == 0 ? heartbeat : text, rng)
                   : flip(text, rng);
    ++counts[static_cast<int>(read_trace(mutant))];
  }
  // Flips in span times or names still read; flips in the syntax do not.
  EXPECT_GT(counts[static_cast<int>(Read::kSummary)], 0);
  EXPECT_GT(counts[static_cast<int>(Read::kUnreadable)], 0);
}

#endif  // !GEOGOSSIP_OBS_DISABLE

}  // namespace
}  // namespace geogossip
