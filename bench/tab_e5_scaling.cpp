// E5 (headline): transmissions-to-epsilon scaling of all protocols.
//
// Reproduces the paper's central comparison: Boyd nearest-neighbour gossip
// (O~(n^2)) vs Dimakis geographic gossip (O~(n^1.5)) vs this paper's affine
// protocols (n^(1+o(1))).  Each protocol is swept over its own feasible n
// range, since the paper's constants are asymptotic (README "Substitutions
// from the paper"); the sweep itself is a Scenario run by the
// thread-parallel exp::Runner, the median transmissions-to-eps are fitted
// to c * n^p, and the measured exponents + extrapolated crossovers are
// printed alongside the theoretical predictions.
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/exponent_fit.hpp"
#include "core/convergence.hpp"
#include "core/schedule.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "gossip/spanning_tree.hpp"
#include "support/string_util.hpp"

namespace gg = geogossip;
using gg::core::ProtocolKind;

int main(int argc, char** argv) {
  std::int64_t seeds = 4;
  std::int64_t master_seed = 1;
  double eps = 1e-3;
  double radius_multiplier = 1.2;
  std::vector<std::size_t> boyd_ns{512, 1024, 2048, 4096, 8192};
  std::vector<std::size_t> dimakis_ns{512, 1024, 2048, 4096, 8192, 16384};
  std::vector<std::size_t> pathavg_ns{512, 1024, 2048, 4096, 8192, 16384};
  std::vector<std::size_t> one_level_ns{512, 2048, 8192, 32768, 131072};
  std::vector<std::size_t> multi_ns{2048, 8192, 32768, 131072};
  std::vector<std::size_t> decentral_ns{1024, 4096, 16384};
  bool quick = false;

  gg::exp::SweepCli cli("tab_e5_scaling",
                        "E5: transmissions-to-eps scaling (headline table)");
  cli.parser().add_flag("seeds", &seeds, "replicates per (protocol, n)",
                        {.above = 0});
  cli.parser().add_flag("seed", &master_seed, "master seed");
  cli.parser().add_flag("eps", &eps, "accuracy target",
                        {.above = 0, .below = 1});
  cli.parser().add_flag("radius-mult", &radius_multiplier,
                        "radius multiplier c in r = c sqrt(log n / n)",
                        {.above = 0});
  cli.parser().add_flag("boyd-ns", &boyd_ns,
                        "comma-separated n sweep for Boyd", {.above = 1});
  cli.parser().add_flag("dimakis-ns", &dimakis_ns, "n sweep for Dimakis",
                        {.above = 1});
  cli.parser().add_flag("pathavg-ns", &pathavg_ns,
                        "n sweep for path averaging", {.above = 1});
  cli.parser().add_flag("onelevel-ns", &one_level_ns,
                        "n sweep for affine-1level", {.above = 1});
  cli.parser().add_flag("multi-ns", &multi_ns, "n sweep for affine-multi",
                        {.above = 1});
  cli.parser().add_flag("decentral-ns", &decentral_ns,
                        "n sweep for the decentralized extension",
                        {.above = 1});
  cli.parser().add_flag("quick", &quick,
                        "shrink sweeps for a fast smoke run");
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  if (quick) {
    boyd_ns = {256, 512, 1024};
    dimakis_ns = {512, 1024, 2048};
    pathavg_ns = {512, 1024, 2048};
    one_level_ns = {512, 2048, 8192};
    multi_ns = {512, 2048, 8192};
    decentral_ns = {512, 2048};
    seeds = std::min<std::int64_t>(seeds, 3);
  }

  const std::vector<std::pair<ProtocolKind, std::vector<std::size_t>>> plans{
      {ProtocolKind::kBoydPairwise, boyd_ns},
      {ProtocolKind::kDimakisGeographic, dimakis_ns},
      {ProtocolKind::kPathAveraging, pathavg_ns},
      {ProtocolKind::kAffineOneLevel, one_level_ns},
      {ProtocolKind::kAffineMultilevel, multi_ns},
      {ProtocolKind::kAffineDecentralized, decentral_ns},
  };

  gg::exp::Scenario scenario;
  scenario.name = "e5-scaling";
  scenario.description = "transmissions-to-eps scaling, all protocols";
  scenario.replicates = static_cast<std::uint32_t>(seeds);
  scenario.master_seed = static_cast<std::uint64_t>(master_seed);
  for (const auto& [kind, ns] : plans) {
    for (const std::size_t n : ns) {
      auto& cell = scenario.add(kind, n);
      cell.radius_multiplier = radius_multiplier;
      cell.options.eps = eps;
    }
  }

  std::cout << "=== E5: transmissions to eps=" << eps
            << " (r = " << radius_multiplier
            << " sqrt(log n / n), seeds=" << seeds << ") ===\n\n";

  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  // Fit tx ~ c n^p per protocol over the cells that mostly converged.
  std::vector<gg::analysis::ScalingReport> reports;
  for (const auto& [kind, planned_ns] : plans) {
    std::vector<double> ns;
    std::vector<double> medians;
    for (const auto& cs : summary.cells) {
      if (cs.cell.kind != kind) continue;
      if (cs.converged_fraction <= 0.5) continue;
      ns.push_back(static_cast<double>(cs.cell.n));
      medians.push_back(cs.median_tx);
    }
    if (ns.size() >= 3) {
      reports.push_back(gg::analysis::fit_scaling(
          std::string(gg::core::protocol_kind_name(kind)), ns, medians));
    }
  }

  std::cout << "\n--- fitted scaling exponents (tx ~ c n^p) ---\n";
  for (const auto& report : reports) {
    std::cout << "  " << report.to_string() << '\n';
  }

  // Extrapolated crossovers between consecutive complexity classes.
  const auto find = [&](const std::string& name)
      -> const gg::analysis::ScalingReport* {
    for (const auto& r : reports) {
      if (r.protocol == name) return &r;
    }
    return nullptr;
  };
  const auto* boyd = find("boyd");
  const auto* dimakis = find("dimakis");
  const auto* multi = find("affine-multi");
  std::cout << "\n--- extrapolated crossovers ---\n";
  if (boyd && dimakis) {
    std::cout << "  dimakis beats boyd past n ~ "
              << gg::format_si(
                     gg::analysis::crossover_n(boyd->fit, dimakis->fit))
              << '\n';
  }
  if (dimakis && multi) {
    std::cout << "  affine-multi beats dimakis past n ~ "
              << gg::format_si(
                     gg::analysis::crossover_n(dimakis->fit, multi->fit))
              << '\n';
  }

  std::cout << "\n--- centralized reference ---\n"
               "  spanning-tree floor 2(n-1): n=16,384 -> "
            << gg::format_count(gg::gossip::spanning_tree_floor(16384))
            << " transmissions (no robustness, single point of failure)\n";

  std::cout << "\n--- paper predictions (shape overlays, c=1) ---\n";
  for (const std::size_t n : {std::size_t{1} << 14, std::size_t{1} << 20}) {
    std::cout << "  n=" << gg::format_count(n) << ": boyd~"
              << gg::format_si(
                     gg::core::boyd_predicted_transmissions(n, eps, 1.0))
              << "  dimakis~"
              << gg::format_si(
                     gg::core::dimakis_predicted_transmissions(n, eps, 1.0))
              << "  narayanan~"
              << gg::format_si(gg::core::narayanan_predicted_transmissions(
                     n, eps, 1.0))
              << '\n';
  }
  return 0;
}
