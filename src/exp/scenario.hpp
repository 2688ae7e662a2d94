// Scenario model for the experiment-orchestration subsystem.
//
// A Scenario names a replicated sweep: a list of cells (protocol kind ×
// size × configuration × radius policy × initial field) plus a replicate
// count and a master seed.  Replicate k of cell c always draws the seed
// replicate_seed(master, c, k), which depends only on those three integers —
// never on thread interleaving — so a scenario is reproducible bit-for-bit
// at any worker count.  The process-wide ScenarioRegistry maps names to
// factories so drivers, examples and tests can share definitions.
#ifndef GEOGOSSIP_EXP_SCENARIO_HPP
#define GEOGOSSIP_EXP_SCENARIO_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/convergence.hpp"
#include "sim/metrics.hpp"

namespace geogossip::exp {

struct Cell;

/// Outcome of one (cell, replicate) trial.  Protocol trials fill the
/// transmission fields; probe trials (E1-E4, E6-E9 measurements that do not
/// run a gossip protocol) report through the open-ended `metrics` map, one
/// named scalar per observable.  The runner aggregates every key it sees.
struct ReplicateResult {
  std::uint64_t seed = 0;
  bool converged = false;
  double final_error = 1.0;
  /// Conservation check |sum x(end) - sum x(0)|.
  double sum_drift = 0.0;
  sim::TxSnapshot transmissions;
  /// Long-range / near exchange counts (decentralized protocol only).
  std::uint64_t far_exchanges = 0;
  std::uint64_t near_exchanges = 0;
  /// Named per-trial observables (hop counts, spectral estimates,
  /// acceptance rates, ...).  std::map, not unordered: deterministic key
  /// order keeps aggregation and sink output stable.
  std::map<std::string, double> metrics;
};

/// A cell's measurement procedure: pure function of (cell, seed), so the
/// scenario stays bit-reproducible at any thread count.  Empty = run the
/// cell's protocol through core::run_protocol_trial.
using TrialFn =
    std::function<ReplicateResult(const Cell& cell, std::uint64_t seed)>;

/// Initial field x(0) drawn fresh for each replicate (centred and
/// normalized by the runner before the trial starts).
enum class CellField {
  kSpikedGaussian,  ///< i.i.d. gaussians + a sqrt(n) spike at a random node
  kGaussian,        ///< i.i.d. standard normals
};

std::string_view cell_field_name(CellField field) noexcept;

/// Sentinel for Cell::seed_stream: derive the stream from the cell's index.
inline constexpr std::size_t kAutoSeedStream =
    static_cast<std::size_t>(-1);

/// One sweep cell: a protocol configuration evaluated at one deployment
/// size.  `replicates` fresh (graph, field) pairs are run per cell.
struct Cell {
  std::string label;  ///< row label in tables/sinks; defaults to kind name
  core::ProtocolKind kind = core::ProtocolKind::kBoydPairwise;
  std::size_t n = 0;
  double radius_multiplier = 1.2;  ///< r = mult * sqrt(log n / n)
  CellField field = CellField::kSpikedGaussian;
  core::TrialOptions options;
  /// Seed-stream id; kAutoSeedStream uses the cell's index (independent
  /// draws per cell).  Give several cells the same id for a PAIRED
  /// comparison: replicate k then samples the identical (graph, field) in
  /// each of them, isolating the configuration difference.
  std::size_t seed_stream = kAutoSeedStream;
  /// Measurement name for probe cells ("routing-hops", "spectral", ...);
  /// empty for protocol cells.  Shown in the sinks' protocol column.
  std::string probe;
  /// Free-form numeric knobs consumed by `trial` (horizon t, eps threshold,
  /// noise bound, sample counts, ...).  Part of the cell's identity, so
  /// factories rebuild them deterministically.
  std::map<std::string, double> params;
  /// Estimated peak resident bytes of ONE replicate of this cell (graph +
  /// protocol; see graph::estimate_build_memory_bytes).  0 = negligible.
  /// When RunnerOptions::memory_budget_bytes is set, the Runner admits
  /// concurrent replicates only while their hints fit the budget, so an
  /// XL sweep (n = 2^17..2^20, ~0.1-1 GB per replicate) cannot
  /// oversubscribe memory just because the pool has idle workers.
  std::uint64_t mem_hint_bytes = 0;
  /// Custom measurement; empty runs the protocol trial.  Must depend only
  /// on (cell, seed) — never on globals or wall clock.
  TrialFn trial;

  /// Looks up a numeric knob; returns `fallback` when absent.
  double param(const std::string& key, double fallback = 0.0) const;
};

/// A named, replicated experiment over a list of cells.
struct Scenario {
  std::string name;
  std::string description;
  std::uint32_t replicates = 4;
  std::uint64_t master_seed = 1;
  /// Deque, not vector: add() hands out references into the container,
  /// and deque growth never invalidates references to existing elements.
  std::deque<Cell> cells;

  /// Appends a cell labelled with the protocol kind name.
  Cell& add(core::ProtocolKind kind, std::size_t n);
  /// Appends a cell with an explicit row label.
  Cell& add(std::string label, core::ProtocolKind kind, std::size_t n);
};

/// Deterministic seed-stream: the seed for replicate `replicate` of the
/// cell at `cell_index`.  Pure function of its arguments (SplitMix64
/// chaining via derive_seed), so results are independent of scheduling.
std::uint64_t replicate_seed(std::uint64_t master_seed,
                             std::size_t cell_index,
                             std::uint32_t replicate) noexcept;

/// Process-wide map from scenario name to factory.  Factories rebuild the
/// scenario on every make() so callers can mutate the result freely.
class ScenarioRegistry {
 public:
  using Factory = std::function<Scenario()>;

  static ScenarioRegistry& instance();

  /// Registers (or replaces) a named factory.
  void add(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  /// Builds the named scenario; throws ArgumentError on unknown names.
  Scenario make(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

/// Registers every built-in scenario: the protocol sweeps ("e5-quick",
/// "e10-ablation-quick", "e11-decentralized-quick") plus, via
/// register_probe_scenarios(), a quick and a paper-scale preset for each
/// measurement figure (E1-E4, E6-E9).  After this call the registry names
/// cover all eleven experiments.  Idempotent.
void register_builtin_scenarios();

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_SCENARIO_HPP
