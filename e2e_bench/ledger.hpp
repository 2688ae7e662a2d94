// Metric catalogue, result ledger and small statistics helpers for the
// end-to-end benchmark.
//
// Every metric the benchmark can print is declared once in catalogue(),
// with its unit; BENCHMARK.json adds each one's direction and bound, and
// README.md which end-to-end metric a per-layer one should move.  A run
// fills a Ledger pre-seeded with every metric of its mode (end-to-end with
// tracing off, per-layer with tracing on), so a metric a workload does not
// exercise still prints (as 0) and the key set never depends on the
// workload.
#ifndef GEOGOSSIP_E2E_BENCH_LEDGER_HPP
#define GEOGOSSIP_E2E_BENCH_LEDGER_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;  ///< false = end-to-end (printed with tracing off)
};

/// Every metric, end-to-end first, in print order.
const std::vector<MetricSpec>& catalogue();

class Ledger {
 public:
  /// Seeds the ledger with every metric of one mode, valued 0.
  explicit Ledger(bool per_layer);

  /// Sets a metric of this ledger's mode; throws std::logic_error on a
  /// name the catalogue does not list for the mode.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Operations attempted and failed, plus the correctness verdict.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Records a correctness-gate failure (the run then exits nonzero).
  void gate_failed(const std::string& why);
  void count(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }
};

/// The last line of the benchmark's stdout.
std::string result_json(const Outcome& outcome, const Ledger& ledger);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User plus system CPU seconds of this process so far (getrusage).
double process_cpu_seconds();

}  // namespace e2e

#endif  // GEOGOSSIP_E2E_BENCH_LEDGER_HPP
