#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace e2e {

const std::vector<MetricSpec>& catalogue() {
  static const std::vector<MetricSpec> specs{
      {"wall_s", "s", false},
      {"setup_s", "s", false},
      {"cpu_s", "s", false},
      {"peak_rss_mb", "MiB", false},
      {"graph.build_s", "s", true},
      {"graph.mirror_s", "s", true},
      {"graph.csr_mb_computed", "MiB", true},
      {"graph.mirror_mb_computed", "MiB", true},
      {"routing.route_ns", "ns", true},
      {"routing.hop_ns", "ns", true},
      {"routing.hops", "count", true},
      {"routing.routes", "count", true},
      {"routing.pruned_per_hop", "count/hop", true},
      {"routing.fail_frac", "ratio", true},
      {"gossip.acceptance_setup_s", "s", true},
      {"gossip.exchanges", "count", true},
      {"gossip.rejections_per_exchange", "count/exchange", true},
      {"gossip.tick_ns.pairwise", "ns", true},
      {"gossip.tick_ns.geographic", "ns", true},
      {"gossip.tick_ns.path_avg", "ns", true},
      {"core.run_s.affine-1level", "s", true},
      {"core.run_s.affine-multi", "s", true},
      {"core.run_s.affine-async", "s", true},
      {"core.run_s.decentralized", "s", true},
      {"sim.ticks", "count", true},
      {"sim.tracker_refreshes", "count", true},
      {"exp.replicate_ms.p50", "ms", true},
      {"exp.replicate_ms.p90", "ms", true},
      {"exp.replicate_ms.max", "ms", true},
      {"exp.replicate_ms.count", "count", true},
      {"exp.parallel_eff", "ratio", true},
      {"exp.sink.write_us.p50", "us", true},
      {"exp.sink.write_us.p90", "us", true},
      {"exp.sink.records", "count", true},
      {"exp.sink.bytes", "bytes", true},
      {"exp.snapshot.save_us.p50", "us", true},
      {"exp.snapshot.save_us.p90", "us", true},
      {"exp.snapshot.saves", "count", true},
      {"exp.snapshot.bytes", "bytes", true},
      {"exp.checkpoint.load_s", "s", true},
      {"fleet.merge_s", "s", true},
      {"fleet.claim_ms", "ms", true},
      {"fleet.renew_ms", "ms", true},
      {"fleet.release_ms", "ms", true},
      {"fleet.batch_idle_frac", "ratio", true},
      {"trace.overhead_frac", "ratio", true},
  };
  return specs;
}

Ledger::Ledger(bool per_layer) {
  for (const MetricSpec& spec : catalogue()) {
    if (spec.per_layer == per_layer) {
      entries_.push_back({spec.name, spec.unit, 0.0});
    }
  }
}

void Ledger::set(const std::string& name, double value) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      return;
    }
  }
  throw std::logic_error("ledger: metric '" + name +
                         "' is not in this mode's catalogue");
}

double Ledger::get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  throw std::logic_error("ledger: no metric '" + name + "'");
}

void Outcome::gate_failed(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

std::string result_json(const Outcome& outcome, const Ledger& ledger) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Ledger::Entry& entry : ledger.entries()) {
    // JSON has no NaN/Infinity; a non-finite value is a benchmark bug,
    // surfaced as a failed gate by the caller before printing.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entry.value) ? entry.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + entry.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.unit + "\"}";
  }
  out += "}}";
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace e2e
