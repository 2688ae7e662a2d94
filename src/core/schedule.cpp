#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip::core {

namespace {

/// The hierarchy of a validated `config`.
geometry::HierarchyConfig checked_hierarchy(const ScheduleConfig& config) {
  GG_CHECK_ARG(config.eps > 0.0 && config.eps < 1.0, "eps in (0,1)");
  GG_CHECK_ARG(config.eps_decay > 1.0, "eps_decay > 1");
  GG_CHECK_ARG(config.round_constant > 0.0, "round_constant > 0");
  GG_CHECK_ARG(config.leaf_threshold >= 1.0, "leaf_threshold >= 1");
  GG_CHECK_ARG(config.max_depth >= 1, "max_depth >= 1");
  geometry::HierarchyConfig hierarchy;
  hierarchy.leaf_occupancy = config.leaf_threshold;
  hierarchy.max_depth = config.max_depth;
  return hierarchy;
}

}  // namespace

Schedule::Schedule(const std::vector<geometry::Vec2>& points,
                   const geometry::Rect& region, const ScheduleConfig& config)
    : config_(config), hierarchy_(points, region, checked_hierarchy(config)) {
  const std::size_t squares = hierarchy_.square_count();
  eps_.resize(squares);
  child_start_.assign(squares + 1, 0);
  rounds_.assign(squares, 0);
  for (std::size_t id = 0; id < squares; ++id) {
    const auto& square = hierarchy_.square(static_cast<int>(id));
    const double eps = config.eps / std::pow(config.eps_decay, square.depth);
    eps_[id] = eps;
    for (const int child : square.children) {
      if (!hierarchy_.square(child).members.empty()) {
        children_.push_back(child);
      }
    }
    child_start_[id + 1] = children_.size();
    const std::size_t nonempty = child_start_[id + 1] - child_start_[id];
    if (nonempty >= 2) {
      const double k = static_cast<double>(nonempty);
      rounds_[id] = static_cast<std::uint32_t>(
          std::ceil(config.round_constant * k * std::log(k / eps)));
    }
  }
}

std::string Schedule::to_string() const {
  const auto range = [](std::size_t lo, std::size_t hi) {
    return lo == hi ? std::to_string(lo)
                    : std::to_string(lo) + ".." + std::to_string(hi);
  };
  const auto k = [this](int id) { return children(id).size(); };
  const auto budget = [this](int id) { return rounds(id); };
  std::ostringstream os;
  os << "schedule (c=" << config_.round_constant
     << ", decay=" << config_.eps_decay
     << ", leaf threshold=" << config_.leaf_threshold << "): "
     << hierarchy_.square_count() << " squares, " << hierarchy_.levels()
     << " levels";
  for (int depth = 0; depth < hierarchy_.levels(); ++depth) {
    const auto ids = hierarchy_.squares_at_depth(depth);
    os << "\n  depth " << depth << ": eps=" << format_sci(eps(ids.front()), 2)
       << " squares=" << ids.size();
    if (hierarchy_.square(ids.front()).is_leaf()) {
      os << " (leaves)";
      continue;
    }
    const auto [k_lo, k_hi] = std::ranges::minmax(ids, {}, k);
    const auto [r_lo, r_hi] = std::ranges::minmax(ids, {}, budget);
    os << " k=" << range(k(k_lo), k(k_hi))
       << " rounds=" << range(budget(r_lo), budget(r_hi));
  }
  return os.str();
}

PaperSchedule make_paper_schedule(std::size_t n, double eps0, double delta0,
                                  double a,
                                  const geometry::HierarchyConfig& hierarchy) {
  GG_CHECK_ARG(n >= 2, "make_paper_schedule: n >= 2");
  GG_CHECK_ARG(eps0 > 0.0 && eps0 < 1.0, "eps0 in (0,1)");
  GG_CHECK_ARG(delta0 > 0.0 && delta0 < 1.0, "delta0 in (0,1)");
  GG_CHECK_ARG(a > 0.0, "a > 0");
  GG_CHECK_ARG(hierarchy.leaf_occupancy >= 1.0, "leaf threshold >= 1");

  const double nn = static_cast<double>(n);
  PaperSchedule schedule;
  schedule.a = a;
  // The nominal hierarchy: split each depth at its expected occupancy.
  double expected = nn;
  for (int depth = 0;; ++depth) {
    schedule.fan_out.push_back(geometry::split_fan_out(
        expected, depth, hierarchy.leaf_occupancy, hierarchy.max_depth));
    if (schedule.fan_out.back() == 0) break;
    expected /= static_cast<double>(schedule.fan_out.back());
  }
  const std::size_t depths = schedule.fan_out.size();
  schedule.eps.resize(depths);
  schedule.delta.resize(depths);
  schedule.log10_time.assign(depths, 0.0);

  // Work in log10 throughout: the literal quantities overflow double fast.
  std::vector<double> log10_eps(depths);
  std::vector<double> log10_delta(depths);
  log10_eps[0] = std::log10(eps0);
  log10_delta[0] = std::log10(delta0);
  for (std::size_t r = 1; r < depths; ++r) {
    // eps_{r} = eps_{r-1} / (25 n^(7/2 + a))
    log10_eps[r] =
        log10_eps[r - 1] - std::log10(25.0) - (3.5 + a) * std::log10(nn);
    // delta_{r} = delta_{r-1} / n^(2 a (r-1))
    log10_delta[r] = log10_delta[r - 1] -
                     2.0 * a * static_cast<double>(r - 1) * std::log10(nn);
  }
  for (std::size_t r = 0; r < depths; ++r) {
    schedule.eps[r] = std::pow(10.0, log10_eps[r]);
    schedule.delta[r] = std::pow(10.0, log10_delta[r]);
  }

  // time at the deepest level ell-1, then upward recursion.
  const auto log10_block = [&](std::size_t r, double scale) {
    // log10 of ((log(scale / eps_r)) * log(1 / delta_r))^16, natural logs.
    const double log_term =
        std::log(scale) - log10_eps[r] * std::numbers::ln10;
    const double delta_term = -log10_delta[r] * std::numbers::ln10;
    GG_CHECK(log_term > 0.0 && delta_term > 0.0,
             "paper schedule log terms must be positive");
    return 16.0 * (std::log10(log_term) + std::log10(delta_term));
  };

  const std::size_t deepest = depths - 1;
  schedule.log10_time[deepest] = log10_block(deepest, nn);
  for (std::size_t r = deepest; r > 0; --r) {
    // time(r-1) = time(r) * n^a * ((log(n_r / eps_r)) log(1/delta_r))^16,
    // n_r = fan-out at depth r-1 (the subsquare count of that split).
    const double fan =
        std::max(4.0, static_cast<double>(schedule.fan_out[r - 1]));
    schedule.log10_time[r - 1] =
        schedule.log10_time[r] + a * std::log10(nn) + log10_block(r, fan);
  }
  return schedule;
}

std::string PaperSchedule::to_string() const {
  std::ostringstream os;
  os << "paper schedule (a=" << a << "):";
  for (std::size_t r = 0; r < eps.size(); ++r) {
    os << "\n  depth " << r << ": k=" << fan_out[r]
       << " eps=" << format_sci(eps[r], 2)
       << " delta=" << format_sci(delta[r], 2)
       << " time=10^" << format_fixed(log10_time[r], 1) << " ticks";
  }
  return os.str();
}

double narayanan_predicted_transmissions(std::size_t n, double eps, double c) {
  GG_CHECK_ARG(n >= 3, "n >= 3");
  GG_CHECK_ARG(eps > 0.0 && eps < 1.0, "eps in (0,1)");
  const double nn = static_cast<double>(n);
  const double log_term = std::log(nn / eps);
  const double exponent = c * std::log(std::log(nn));
  return nn * std::pow(log_term, exponent);
}

double dimakis_predicted_transmissions(std::size_t n, double eps, double c) {
  GG_CHECK_ARG(n >= 3, "n >= 3");
  const double nn = static_cast<double>(n);
  return c * std::pow(nn, 1.5) * std::log(1.0 / eps) / std::sqrt(std::log(nn));
}

double boyd_predicted_transmissions(std::size_t n, double eps, double c) {
  GG_CHECK_ARG(n >= 3, "n >= 3");
  const double nn = static_cast<double>(n);
  return c * nn * nn * std::log(1.0 / eps) / std::log(nn);
}

}  // namespace geogossip::core
