// The paper's per-level accuracy/time schedule (§4.1): the calibrated
// Schedule both hierarchical protocols run, and the literal PaperSchedule
// it stands in for (README "Substitutions from the paper").
//
// Paper (literal):
//   eps_0 = eps, delta_0 = delta
//   eps_{r+1}  = eps_r  / (25 n^(7/2 + a))
//   delta_{r+1} = delta_r / n^(2 a r)
//   time(n, ell-1, .) = ((log(n / eps_{ell-1})) log(1/delta_{ell-1}))^16
//   time(n, r-1, .)  = time(n, r, .) * n^a * ((log(n_r/eps_r)) log(1/delta_r))^16
// These quantities are astronomically conservative — they exist to make the
// union bounds work at asymptotic n — so PaperSchedule REPORTS them (bench
// E10 prints the comparison) while Schedule drives simulation with the same
// structure and calibrated constants, per square of the actual hierarchy:
//   eps_d   = eps / eps_decay^d                      (d = the square's depth)
//   rounds  = ceil(round_constant * k * ln(k / eps_d))   (Observation 1)
// where k is the square's count of non-empty children (0 rounds when k < 2).
#ifndef GEOGOSSIP_CORE_SCHEDULE_HPP
#define GEOGOSSIP_CORE_SCHEDULE_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geometry/hierarchy.hpp"

namespace geogossip::core {

/// The schedule's settings, shared by both hierarchical protocols' configs.
struct ScheduleConfig {
  /// Top-level accuracy target; a depth-d square aims at eps / eps_decay^d.
  double eps = 1e-3;
  double eps_decay = 10.0;
  /// c in the inner-round budget ceil(c * k * ln(k / eps_d)).
  double round_constant = 1.0;
  /// Practical hierarchy leaf threshold (expected occupancy).
  double leaf_threshold = 48.0;
  /// Depth cap; 1 reproduces the §3 one-level protocol.
  int max_depth = 12;
};

/// The practical hierarchy of a deployment plus, per square (indexed by
/// arena id), its accuracy target eps_d, its non-empty children and its
/// inner-round budget.  Tabulated once; every lookup is an array read.
class Schedule {
 public:
  /// Rejects an invalid `config` (ArgumentError) before partitioning
  /// `points` in `region`.  `points` must outlive the schedule.
  Schedule(const std::vector<geometry::Vec2>& points,
           const geometry::Rect& region, const ScheduleConfig& config);

  const geometry::PartitionHierarchy& hierarchy() const noexcept {
    return hierarchy_;
  }
  double eps(int square) const noexcept {
    return eps_[static_cast<std::size_t>(square)];
  }
  /// The square's children that hold at least one sensor, in arena order.
  std::span<const int> children(int square) const noexcept {
    const auto id = static_cast<std::size_t>(square);
    return {children_.data() + child_start_[id],
            child_start_[id + 1] - child_start_[id]};
  }
  std::uint32_t rounds(int square) const noexcept {
    return rounds_[static_cast<std::size_t>(square)];
  }

  /// Per depth: eps_d, the square count and the min-max of k and rounds.
  std::string to_string() const;

 private:
  ScheduleConfig config_;
  geometry::PartitionHierarchy hierarchy_;
  std::vector<double> eps_;
  std::vector<std::size_t> child_start_;  ///< CSR offsets into children_
  std::vector<int> children_;
  std::vector<std::uint32_t> rounds_;
};

/// Literal §4.1 quantities (for reporting only — see header comment), over
/// the nominal hierarchy in which every square holds its expected occupancy.
struct PaperSchedule {
  double a = 1.0;
  std::vector<std::int64_t> fan_out;  ///< nominal k_r; 0 at the leaf depth
  std::vector<double> eps;        ///< eps_r, indexed by depth
  std::vector<double> delta;      ///< delta_r
  std::vector<double> log10_time; ///< log10 of time(n, r, eps_r, delta_r)

  std::string to_string() const;
};

PaperSchedule make_paper_schedule(std::size_t n, double eps0, double delta0,
                                  double a,
                                  const geometry::HierarchyConfig& hierarchy);

/// The paper's headline prediction, as a comparable closed form:
/// n * (log(n / eps))^(c * log log n).  Used for shape overlays in E5.
double narayanan_predicted_transmissions(std::size_t n, double eps, double c);

/// Dimakis et al. prediction: c * n^1.5 * log(1/eps) / sqrt(log n).
double dimakis_predicted_transmissions(std::size_t n, double eps, double c);

/// Boyd et al. prediction on G(n, r): c * n^2 * log(1/eps) / log(n).
double boyd_predicted_transmissions(std::size_t n, double eps, double c);

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_SCHEDULE_HPP
