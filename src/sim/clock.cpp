#include "sim/clock.hpp"

#include "support/check.hpp"

namespace geogossip::sim {

AsyncClock::AsyncClock(std::uint32_t n, Rng& rng) : n_(n), rng_(&rng) {
  GG_CHECK_ARG(n >= 1, "AsyncClock: need at least one node");
}

Tick AsyncClock::next() {
  // The Exp(n) gap's uniform: drawn so the stream matches the full model,
  // but its log is never taken (no result reports model time).
  rng_->next_u64();
  Tick tick;
  tick.node = static_cast<std::uint32_t>(rng_->below(n_));
  tick.index = ticks_++;
  return tick;
}

}  // namespace geogossip::sim
