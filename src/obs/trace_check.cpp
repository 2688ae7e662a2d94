#include "obs/trace_check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/heartbeat.hpp"
#include "support/json.hpp"
#include "support/read_file.hpp"

namespace geogossip::obs {

namespace {

/// printf into a std::string (the summary's fixed-width columns).
template <typename... Args>
std::string format(const char* pattern, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), pattern, args...);
  return buf;
}

const JsonValue* finite_number(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.get(key);
  return value != nullptr && value->kind == JsonValue::Kind::kNumber &&
                 std::isfinite(value->number)
             ? value
             : nullptr;
}

/// An integer arg; absent args read as nullopt.
std::optional<std::int64_t> integer_arg(const JsonValue* args,
                                        std::string_view key,
                                        const std::string& where) {
  const JsonValue* value = args == nullptr ? nullptr : args->get(key);
  if (value == nullptr) return std::nullopt;
  if (value->kind != JsonValue::Kind::kNumber ||
      !(std::fabs(value->number) <= 9007199254740992.0) ||
      std::trunc(value->number) != value->number) {
    throw TraceFormatError(where + ": arg \"" + std::string(key) +
                           "\" is not an integer");
  }
  return static_cast<std::int64_t>(value->number);
}

std::uint64_t count_of(const JsonValue& value, const std::string& what) {
  if (value.kind != JsonValue::Kind::kNumber || !value.is_uint) {
    throw TraceFormatError(what + " is not a count");
  }
  return value.uint_value;
}

/// `inner` lies within `outer` in time (equal endpoints count as inside).
bool encloses(const TraceSpan& outer, const TraceSpan& inner) {
  return outer.ts <= inner.ts && inner.ts + inner.dur <= outer.ts + outer.dur;
}

std::string arg_text(const std::optional<std::int64_t>& arg) {
  return arg ? std::to_string(*arg) : "?";
}

}  // namespace

Trace parse_trace(std::string_view text) {
  JsonValue doc;
  try {
    doc = parse_json(text);
  } catch (const JsonParseError& error) {
    throw TraceFormatError(std::string("not JSON: ") + error.what());
  }
  const JsonValue* events =
      doc.kind == JsonValue::Kind::kObject ? doc.get("traceEvents") : nullptr;
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    throw TraceFormatError("not a Chrome trace (no traceEvents)");
  }

  Trace trace;
  for (std::size_t i = 0; i < events->elements.size(); ++i) {
    const JsonValue& event = events->elements[i];
    const JsonValue* phase =
        event.kind == JsonValue::Kind::kObject ? event.get("ph") : nullptr;
    if (phase == nullptr || phase->text != "X") continue;
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    const JsonValue* name = event.get("name");
    const JsonValue* tid = finite_number(event, "tid");
    const JsonValue* ts = finite_number(event, "ts");
    const JsonValue* dur = finite_number(event, "dur");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        tid == nullptr || ts == nullptr || dur == nullptr) {
      throw TraceFormatError(where +
                             ": a complete span needs a string name, a "
                             "numeric tid and finite ts and dur");
    }
    const JsonValue* args = event.get("args");
    if (args != nullptr && args->kind != JsonValue::Kind::kObject) {
      throw TraceFormatError(where + ": args is not an object");
    }
    TraceSpan& span = trace.spans.emplace_back();
    span.name = name->text;
    span.tid = tid->number;
    span.ts = ts->number;
    span.dur = dur->number;
    span.cell = integer_arg(args, "cell", where);
    span.replicate = integer_arg(args, "replicate", where);
  }

  const JsonValue* other = doc.get("otherData");
  if (other != nullptr && other->kind == JsonValue::Kind::kObject) {
    if (const JsonValue* dropped = other->get("droppedEvents")) {
      trace.dropped_events = count_of(*dropped, "otherData.droppedEvents");
    }
    if (const JsonValue* counters = other->get("counters")) {
      for (const auto& [name, value] : counters->members) {
        trace.counters[name] = count_of(value, "counter \"" + name + "\"");
      }
    }
  }
  return trace;
}

void print_trace_summary(std::ostream& out, const Trace& trace,
                         std::size_t top) {
  struct Phase {
    std::string name;
    double total_us = 0.0;
    std::size_t count = 0;
  };
  std::vector<Phase> phases;  // first-seen order, then by total
  std::vector<const TraceSpan*> replicates;
  for (const TraceSpan& span : trace.spans) {
    auto it = std::find_if(phases.begin(), phases.end(),
                           [&](const Phase& p) { return p.name == span.name; });
    if (it == phases.end()) {
      phases.push_back(Phase{span.name});
      it = std::prev(phases.end());
    }
    it->total_us += span.dur;
    ++it->count;
    if (span.name == "replicate") replicates.push_back(&span);
  }
  std::stable_sort(phases.begin(), phases.end(),
                   [](const Phase& a, const Phase& b) {
                     return a.total_us > b.total_us;
                   });
  if (!phases.empty()) {
    out << "phase totals (wall time attributed per span name):\n";
    std::size_t width = 0;
    for (const Phase& p : phases) width = std::max(width, p.name.size());
    for (const Phase& p : phases) {
      out << "  " << p.name << std::string(width - p.name.size(), ' ')
          << format("  total %10.3f ms  count %6zu  mean %9.3f ms\n",
                    p.total_us / 1000.0, p.count,
                    p.total_us / static_cast<double>(p.count) / 1000.0);
    }
  }

  std::stable_sort(replicates.begin(), replicates.end(),
                   [](const TraceSpan* a, const TraceSpan* b) {
                     return a->dur > b->dur;
                   });
  replicates.resize(std::min(top, replicates.size()));
  if (!replicates.empty()) {
    out << "top " << replicates.size() << " slowest replicates:\n";
    for (const TraceSpan* span : replicates) {
      out << format("  cell %4s replicate %4s  %9.3f ms\n",
                    arg_text(span->cell).c_str(),
                    arg_text(span->replicate).c_str(), span->dur / 1000.0);
    }
  }

  if (trace.dropped_events != 0) {
    out << "dropped events: " << trace.dropped_events << "\n";
  }
  if (!trace.counters.empty()) {
    out << "counters:\n";
    std::size_t width = 0;
    for (const auto& [name, value] : trace.counters) {
      width = std::max(width, name.size());
    }
    for (const auto& [name, value] : trace.counters) {
      out << "  " << name << std::string(width - name.size(), ' ') << "  "
          << value << "\n";
    }
  }
}

std::vector<std::string> trace_violations(const Trace& trace) {
  std::vector<std::string> problems;
  std::vector<const TraceSpan*> replicates;
  std::vector<const TraceSpan*> cells;
  for (const TraceSpan& span : trace.spans) {
    if (span.name == "replicate") replicates.push_back(&span);
    if (span.name == "cell") cells.push_back(&span);
  }
  if (replicates.empty()) problems.push_back("no replicate spans");
  for (const TraceSpan* replicate : replicates) {
    if (!replicate->cell || !replicate->replicate) {
      problems.push_back(format("replicate span at ts=%.3f lacks "
                                "cell/replicate args",
                                replicate->ts));
      break;
    }
  }
  for (const TraceSpan* replicate : replicates) {
    if (!replicate->cell) continue;
    const bool inside = std::any_of(
        cells.begin(), cells.end(), [&](const TraceSpan* cell) {
          return cell->cell == replicate->cell && encloses(*cell, *replicate);
        });
    if (!inside) {
      problems.push_back(format("replicate span (cell %lld, ts=%.3f) not "
                                "enclosed by its cell span",
                                static_cast<long long>(*replicate->cell),
                                replicate->ts));
      break;
    }
  }
  // Greedy routing scans the CSR row until a graph's routed hops reach
  // the switch threshold, so a sweep that routes little (or not at all)
  // builds no mirror.  Every trace carries the routing counters, zeros
  // included; a mirror span is owed once a hop ran on a mirror
  // (routing.hops > routing.unmirrored_hops), by a trace that lacks the
  // counters, and by one that has a mirror span at all.
  const auto hops = trace.counters.find("routing.hops");
  const auto unmirrored = trace.counters.find("routing.unmirrored_hops");
  const bool mirrored_hops = hops == trace.counters.end() ||
                             unmirrored == trace.counters.end() ||
                             hops->second > unmirrored->second;
  const bool mirror_owed =
      mirrored_hops ||
      std::any_of(trace.spans.begin(), trace.spans.end(),
                  [](const TraceSpan& span) {
                    return span.name == "routing_mirror";
                  });
  for (const std::string_view phase : {"graph_build", "routing_mirror"}) {
    if (phase == "routing_mirror" && !mirror_owed) continue;
    const bool nested = std::any_of(
        trace.spans.begin(), trace.spans.end(), [&](const TraceSpan& span) {
          return span.name == phase &&
                 std::any_of(replicates.begin(), replicates.end(),
                             [&](const TraceSpan* replicate) {
                               return replicate->tid == span.tid &&
                                      encloses(*replicate, span);
                             });
        });
    if (!nested) {
      problems.push_back("no " + std::string(phase) +
                         " span nested inside a replicate span");
    }
  }
  return problems;
}

std::vector<std::string> heartbeat_violations(std::string_view text,
                                              const std::string& label,
                                              bool expect_complete) {
  std::vector<std::string> problems;
  std::optional<HeartbeatLine> last;
  std::size_t lineno = 0;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(std::min(end + 1, text.size()));
    if (line.find_first_not_of(" \t\r\v\f") == std::string_view::npos) {
      continue;
    }
    ++lineno;
    const std::string at = label + ":" + std::to_string(lineno) + ": ";
    std::optional<HeartbeatLine> beat = parse_heartbeat_line(line);
    if (!beat) {
      problems.push_back(at + "unparsable line");
      continue;
    }
    if (!beat->schema_problem.empty()) {
      problems.push_back(at + beat->schema_problem);
      continue;
    }
    if (beat->seq != lineno - 1) {
      problems.push_back(at + "seq " + std::to_string(beat->seq) +
                         " != " + std::to_string(lineno - 1) +
                         " (lines lost or reordered)");
    }
    if (beat->completed > beat->total) {
      problems.push_back(at + "completed " + std::to_string(beat->completed) +
                         " > total " + std::to_string(beat->total));
    }
    if (last && beat->completed < last->completed) {
      problems.push_back(at + "completed went backwards (" +
                         std::to_string(last->completed) + " -> " +
                         std::to_string(beat->completed) + ")");
    }
    last = std::move(beat);
  }
  if (lineno == 0) problems.push_back(label + ": empty heartbeat file");
  if (expect_complete && last && last->completed != last->total) {
    problems.push_back(label + ": final beat reports " +
                       std::to_string(last->completed) + "/" +
                       std::to_string(last->total) +
                       " — sweep did not complete");
  }
  return problems;
}

int run_trace_summary(const TraceSummaryOptions& options, std::ostream& out,
                      std::ostream& err) {
  const std::optional<std::string> text = read_file(options.trace);
  if (!text) {
    err << "error: " << options.trace << ": cannot read\n";
    return 2;
  }
  Trace trace;
  try {
    trace = parse_trace(*text);
  } catch (const TraceFormatError& error) {
    err << "error: " << options.trace << ": " << error.what() << "\n";
    return 2;
  }
  print_trace_summary(out, trace, options.top);

  bool failed = false;
  if (options.validate) {
    for (const std::string& problem : trace_violations(trace)) {
      err << "trace validation: " << problem << "\n";
      failed = true;
    }
  }
  if (!options.heartbeat.empty()) {
    const std::optional<std::string> beats = read_file(options.heartbeat);
    const std::vector<std::string> problems =
        beats ? heartbeat_violations(*beats, options.heartbeat,
                                     options.expect_complete)
              : std::vector<std::string>{options.heartbeat + ": cannot read"};
    for (const std::string& problem : problems) {
      err << "heartbeat validation: " << problem << "\n";
      failed = true;
    }
  }
  if (failed) return 1;
  if (options.validate || !options.heartbeat.empty()) {
    out << "validation: ok\n";
  }
  return 0;
}

}  // namespace geogossip::obs
