#include "gossip/base.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/snapshot.hpp"

namespace geogossip::gossip {

namespace {

// Updates between exact recomputations of the tracker.  Neumaier-
// compensated shifted sums drift by at most a few ULP per update, so even
// a generous cadence keeps the relative error orders of magnitude below
// any epsilon target.  The interval scales with n so the O(n) refresh
// amortizes to O(1) per element update at every n (a fixed interval
// would re-introduce a per-update cost growing linearly with n), with a
// 2^16 floor so small deployments still refresh rarely.
std::uint64_t default_refresh_interval(std::size_t n) noexcept {
  return std::max<std::uint64_t>(std::uint64_t{1} << 16, 8 * n);
}

}  // namespace

ValueProtocol::ValueProtocol(const graph::GeometricGraph& graph,
                             std::vector<double> x0, Rng& rng)
    : graph_(&graph),
      rng_(&rng),
      x_(std::move(x0)),
      refresh_interval_(default_refresh_interval(x_.size())) {
  GG_CHECK_ARG(x_.size() == graph.node_count(),
               "initial values must match node count");
  tracker_.reset(x_);
}

double ValueProtocol::value_sum() const noexcept {
  double sum = 0.0;
  for (const double v : x_) sum += v;
  return sum;
}

void ValueProtocol::note_updates(std::uint64_t count) {
  updates_since_refresh_ += count;
  if (updates_since_refresh_ >= refresh_interval_) {
    tracker_.reset(x_);
    updates_since_refresh_ = 0;
    ++refreshes_;
    static const auto c_refresh = obs::counter("protocol.tracker_refreshes");
    obs::add(c_refresh);
  }
}

void ValueProtocol::apply_pair_average(graph::NodeId a, graph::NodeId b) {
  const double old_a = x_[a];
  const double old_b = x_[b];
  const double average = 0.5 * (old_a + old_b);
  tracker_.update_conserving_pair(old_a, old_b, average, average);
  x_[a] = average;
  x_[b] = average;
  note_updates(2);
}

void ValueProtocol::apply_average(std::span<const graph::NodeId> nodes) {
  if (nodes.empty()) return;
  double sum = 0.0;
  for (const auto node : nodes) sum += x_[node];
  const double average = sum / static_cast<double>(nodes.size());
  const double shift = tracker_.shift();
  const double d_avg = average - shift;
  double removed = 0.0;
  for (const auto node : nodes) {
    const double d = x_[node] - shift;
    removed += d * d;
    x_[node] = average;
  }
  tracker_.add_conserving_sq_delta(
      static_cast<double>(nodes.size()) * d_avg * d_avg - removed);
  note_updates(nodes.size());
}

void ValueProtocol::apply_affine_jump(graph::NodeId a, graph::NodeId b,
                                      double beta) {
  const double old_a = x_[a];
  const double old_b = x_[b];
  const double new_a = old_a + beta * (old_b - old_a);
  const double new_b = old_b + beta * (old_a - old_b);
  tracker_.update_conserving_pair(old_a, old_b, new_a, new_b);
  x_[a] = new_a;
  x_[b] = new_b;
  note_updates(2);
}

void ValueProtocol::set_value(graph::NodeId node, double value) {
  tracker_.update(x_[node], value);
  x_[node] = value;
  note_updates(1);
}

void ValueProtocol::snapshot(SnapshotWriter& w) const {
  w.str(name());
  w.f64_span(x_);
  tracker_.save(w);
  w.u64(updates_since_refresh_);
  w.u64(refreshes_);
  const auto& tx = meter_.snapshot();
  for (const auto count : tx.by_category) w.u64(count);
  snapshot_scratch(w);
}

void ValueProtocol::restore(SnapshotReader& r) {
  const std::string snap_name = r.str();
  GG_CHECK_ARG(snap_name == name(),
               "ValueProtocol::restore: snapshot is for protocol '" +
                   snap_name + "', not '" + std::string(name()) + "'");
  r.f64_span_into(x_);
  tracker_.restore(r);
  GG_CHECK_ARG(tracker_.size() == x_.size(),
               "ValueProtocol::restore: tracker size mismatch");
  updates_since_refresh_ = r.u64();
  refreshes_ = r.u64();
  sim::TxSnapshot tx;
  for (auto& count : tx.by_category) count = r.u64();
  meter_.restore(tx);
  restore_scratch(r);
}

}  // namespace geogossip::gossip
