// Reading back what the obs writers write: the Chrome trace of
// write_chrome_trace and the heartbeat file of Heartbeat.
//
// parse_trace loads a trace on the strict JSON reader; print_trace_summary
// renders per-phase wall totals, the slowest replicate spans and the
// counter totals; trace_violations checks the span structure a sweep
// promises:
//   - at least one "replicate" span exists, and each carries "cell" and
//     "replicate" args;
//   - every replicate span lies inside the "cell" envelope of its cell
//     (the envelopes are derived from per-task times, so a breach means
//     the Runner recorded inconsistent times);
//   - some "graph_build" span nests inside a replicate span of the same
//     lane, and so does some "routing_mirror" span — unless the trace has
//     none and its counters show no hop ran on a mirror
//     (routing.hops <= routing.unmirrored_hops; both are in every trace,
//     zeros included): a sweep that routes too little to reach the switch
//     threshold, or never routes, builds none.
// heartbeat_violations checks a heartbeat file: every line is one
// heartbeat (parse_heartbeat_line) with every schema key, `seq` counts
// lines from 0, `completed` never exceeds `total` and never decreases,
// and, when asked, the last line reports the sweep complete.
//
// run_trace_summary is the tools/trace_summary command: exit 0 when every
// check asked for holds, 1 on a violation (listed on stderr), 2 when the
// trace is unreadable or not a trace.
#ifndef GEOGOSSIP_OBS_TRACE_CHECK_HPP
#define GEOGOSSIP_OBS_TRACE_CHECK_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace geogossip::obs {

/// One complete ("ph":"X") event; times in microseconds.
struct TraceSpan {
  std::string name;
  double tid = 0.0;
  double ts = 0.0;
  double dur = 0.0;
  std::optional<std::int64_t> cell;       ///< the "cell" arg
  std::optional<std::int64_t> replicate;  ///< the "replicate" arg
};

struct Trace {
  std::vector<TraceSpan> spans;  ///< file order; other phases are skipped
  std::uint64_t dropped_events = 0;
  std::map<std::string, std::uint64_t> counters;
};

/// The document is not a Chrome trace in the shape write_chrome_trace
/// writes (what() says where).
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a Chrome trace.  Every complete span must carry a string name,
/// a numeric tid, and finite ts and dur; "cell"/"replicate" args, when
/// present, are integers; counters and droppedEvents are counts.  Throws
/// TraceFormatError otherwise.
Trace parse_trace(std::string_view text);

/// Per-phase totals (by descending total), the `top` slowest replicate
/// spans, the dropped-event count when non-zero, and the counters.
void print_trace_summary(std::ostream& out, const Trace& trace,
                         std::size_t top);

/// The span rules of the file comment; one message per rule broken.
std::vector<std::string> trace_violations(const Trace& trace);

/// The heartbeat rules of the file comment over the text of a heartbeat
/// file; `label` prefixes each message (the file's path).  Blank lines
/// are skipped.
std::vector<std::string> heartbeat_violations(std::string_view text,
                                              const std::string& label,
                                              bool expect_complete);

struct TraceSummaryOptions {
  std::string trace;      ///< the trace file
  std::size_t top = 10;   ///< slowest replicates listed
  bool validate = false;  ///< check trace_violations
  std::string heartbeat;  ///< also check this heartbeat file (when set)
  bool expect_complete = false;
};

/// Summarizes, then checks what `options` asks for: 0 ok, 1 violation,
/// 2 when the trace cannot be read or is not a trace.  An unreadable
/// heartbeat file is a heartbeat violation.
int run_trace_summary(const TraceSummaryOptions& options, std::ostream& out,
                      std::ostream& err);

}  // namespace geogossip::obs

#endif  // GEOGOSSIP_OBS_TRACE_CHECK_HPP
