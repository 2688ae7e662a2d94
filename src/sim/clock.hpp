// Asynchronous time model (paper §2).
//
// Every sensor owns an independent rate-1 Poisson clock.  Equivalently a
// single global rate-n Poisson clock ticks and assigns each tick to a node
// chosen uniformly at random; communication completes within one slot.
// AsyncClock implements the equivalent global form.  It reports only tick
// owners and tick counts: every result is a count of ticks or
// transmissions, so the exponential inter-arrival times are never
// computed.  Each tick still consumes the gap's uniform draw, which keeps
// the RNG stream (and every trajectory pinned on it) that of the full
// continuous-time model.
#ifndef GEOGOSSIP_SIM_CLOCK_HPP
#define GEOGOSSIP_SIM_CLOCK_HPP

#include <cstdint>

#include "support/rng.hpp"

namespace geogossip::sim {

struct Tick {
  std::uint32_t node = 0;   ///< owner of this tick
  std::uint64_t index = 0;  ///< 0-based global tick counter
};

class AsyncClock {
 public:
  /// `n` sensors, each a rate-1 Poisson process.
  AsyncClock(std::uint32_t n, Rng& rng);

  /// Draws the next global tick: the gap's uniform (discarded), then the
  /// owner, uniform over the n nodes.
  Tick next();

  /// Counts one step of a round-driven protocol without drawing: the step
  /// has no owner (node 0).
  Tick next_round() noexcept {
    Tick tick;
    tick.index = ticks_++;
    return tick;
  }

  std::uint64_t ticks_elapsed() const noexcept { return ticks_; }
  std::uint32_t node_count() const noexcept { return n_; }

  /// Places the clock at a snapshotted stream position.  The RNG is
  /// restored separately; together they make the next() stream continue
  /// exactly where the snapshotted run left off.
  void restore(std::uint64_t ticks) noexcept { ticks_ = ticks; }

 private:
  std::uint32_t n_;
  Rng* rng_;
  std::uint64_t ticks_ = 0;
};

}  // namespace geogossip::sim

#endif  // GEOGOSSIP_SIM_CLOCK_HPP
