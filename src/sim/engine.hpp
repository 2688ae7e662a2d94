// Gossip engine: drives any protocol step by step until the
// epsilon-averaging criterion ||x - mean|| <= eps ||x(0) - mean|| is met,
// checked after every step, so a reported convergence step is exact.
// A step is one Poisson clock tick, or one synchronous round for a
// protocol whose steps are rounds (GossipProtocol::steps_are_rounds).
#ifndef GEOGOSSIP_SIM_ENGINE_HPP
#define GEOGOSSIP_SIM_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "sim/clock.hpp"
#include "sim/metrics.hpp"

namespace geogossip {
class SnapshotReader;
class SnapshotWriter;
}  // namespace geogossip

namespace geogossip::sim {

/// Interface every averaging protocol implements.  The engine owns the
/// clock; the protocol owns values and transmission accounting.
class GossipProtocol {
 public:
  virtual ~GossipProtocol() = default;

  virtual std::string_view name() const = 0;

  /// Handles one clock tick belonging to `tick.node`.
  virtual void on_tick(const Tick& tick) = 0;

  /// Current per-node values.
  virtual std::span<const double> values() const = 0;

  virtual const TxMeter& meter() const = 0;

  /// Squared deviation ||x - mean(x)||^2 as the convergence criterion
  /// reads it.  The engine reads it after every step, so it must be cheap
  /// (gossip::ValueProtocol tracks it incrementally in O(1)).
  virtual double deviation_sq() const = 0;

  /// True when one engine step is one synchronous round of the whole
  /// protocol rather than one node's Poisson tick (the paper's §3 round
  /// protocol).  The engine then counts steps without drawing the clock,
  /// so the protocol's RNG stream is its own, and polls the wall-clock
  /// snapshot cadence every step.
  virtual bool steps_are_rounds() const { return false; }

  /// Snapshot/Restore contract (mid-replicate durability).  snapshot()
  /// serializes every field that affects the remaining trajectory;
  /// restore() is called on a FRESHLY CONSTRUCTED protocol of the identical
  /// configuration (same graph, x0 and RNG seed — construction-time
  /// randomness is deterministic per seed) and overwrites that state, after
  /// which the run continues bit-identically once the engine clock and the
  /// RNG are restored alongside.
  virtual void snapshot(SnapshotWriter& w) const = 0;
  virtual void restore(SnapshotReader& r) = 0;
};

/// Mid-run checkpoint cadence for run_to_epsilon.  Snapshots are pure
/// reads of the run state — taking one never perturbs the trajectory — so
/// enabling checkpoints cannot change results.  persist() receives the
/// serialized engine+RNG+protocol payload; a throw from it propagates (a
/// checkpoint that cannot be written is an environment failure, mirroring
/// the sink's flush-check-throw policy).
struct CheckpointPolicy {
  /// Snapshot every N engine steps: Poisson ticks, or top-level rounds for
  /// a protocol whose steps are rounds.  0 = no step cadence.
  std::uint64_t every_ticks = 0;
  /// Snapshot when this much wall time passed since the previous snapshot
  /// (or the run start).  0 = no wall cadence.
  double every_seconds = 0.0;
  /// Tick protocols poll the wall clock only every few thousand ticks
  /// (kWallPollTicks in engine.cpp), keeping clock syscalls off the hot
  /// path; round-driven protocols poll it every round.
  std::function<void(std::string_view payload, std::uint64_t ticks)> persist;

  bool enabled() const noexcept {
    return static_cast<bool>(persist) &&
           (every_ticks > 0 || every_seconds > 0.0);
  }
};

struct RunConfig {
  /// Convergence target: ||x(t) - mean|| <= epsilon * ||x(0) - mean||.
  double epsilon = 1e-3;
  /// Hard step budget: ticks, or rounds for a round-driven protocol (0 =
  /// 10^7 * n heuristic is NOT applied; treat 0 as "caller must set" and
  /// checked).
  std::uint64_t max_ticks = 0;
};

/// The outcome of one run, counted in engine steps and transmissions (the
/// paper's cost measures); the Poisson model time is not tracked.
struct RunResult {
  bool converged = false;
  std::uint64_t ticks = 0;
  /// ||x(end) - mean|| / ||x(0) - mean||.
  double final_error = 1.0;
  TxSnapshot transmissions;

  std::string to_string() const;
};

/// Relative deviation ||x - mean(x)|| / scale (scale > 0).
double relative_error(std::span<const double> values, double initial_norm);

/// ||x - mean(x)||_2.
double deviation_norm(std::span<const double> values);

/// Runs `protocol` on a fresh AsyncClock(n, rng) until convergence or the
/// step budget.  Requires config.max_ticks > 0.  A round-driven protocol
/// never draws from the clock: `rng` then serves only the snapshots, and
/// should be the protocol's own stream.
RunResult run_to_epsilon(GossipProtocol& protocol, Rng& rng,
                         const RunConfig& config);

/// Checkpoint-aware variant.  With a non-empty `resume` payload (produced
/// by an earlier CheckpointPolicy::persist of the same run configuration)
/// the engine restores the clock, the RNG and the protocol to the
/// snapshotted tick and continues; the completed run is bit-identical to
/// an uninterrupted one.  The payload self-identifies (protocol name, n)
/// and restore fails loudly on any mismatch, truncation or a step count
/// past config.max_ticks.
RunResult run_to_epsilon(GossipProtocol& protocol, Rng& rng,
                         const RunConfig& config,
                         const CheckpointPolicy& checkpoints,
                         std::string_view resume);

}  // namespace geogossip::sim

#endif  // GEOGOSSIP_SIM_ENGINE_HPP
