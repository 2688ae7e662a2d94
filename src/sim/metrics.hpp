// Transmission accounting in the paper's cost model.
//
// Every protocol charges each radio transmission to exactly one category so
// benches can report both totals and the control-overhead share that the
// paper's "not completely decentralized" caveat is about.
#ifndef GEOGOSSIP_SIM_METRICS_HPP
#define GEOGOSSIP_SIM_METRICS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace geogossip::sim {

enum class TxCategory : std::uint8_t {
  kLocal = 0,      ///< single-hop neighbour exchanges (Near / Boyd step)
  kLongRange = 1,  ///< greedy-routed packet hops (Far / Dimakis exchange)
  kControl = 2,    ///< Activate/Deactivate floods and control packets
};

inline constexpr std::size_t kTxCategoryCount = 3;

std::string_view tx_category_name(TxCategory category) noexcept;

struct TxSnapshot {
  std::array<std::uint64_t, kTxCategoryCount> by_category{};

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto c : by_category) sum += c;
    return sum;
  }
  std::uint64_t operator[](TxCategory c) const noexcept {
    return by_category[static_cast<std::size_t>(c)];
  }
  TxSnapshot operator-(const TxSnapshot& other) const noexcept;
  std::string to_string() const;
};

class TxMeter {
 public:
  void add(TxCategory category, std::uint64_t count = 1) noexcept {
    snapshot_.by_category[static_cast<std::size_t>(category)] += count;
  }
  const TxSnapshot& snapshot() const noexcept { return snapshot_; }
  std::uint64_t total() const noexcept { return snapshot_.total(); }
  void reset() noexcept { snapshot_ = TxSnapshot{}; }
  /// Overwrites the counters with a snapshotted state (mid-replicate
  /// checkpoint restore); continuation accumulates on top.
  void restore(const TxSnapshot& snapshot) noexcept { snapshot_ = snapshot; }

 private:
  TxSnapshot snapshot_;
};

}  // namespace geogossip::sim

#endif  // GEOGOSSIP_SIM_METRICS_HPP
