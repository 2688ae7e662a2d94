// E9: rejection sampling makes the geographic-gossip target distribution
// near-uniform (the Dimakis et al. premise the paper inherits for its
// uniform sibling sampling).
//
// One Scenario cell per (n, rejection on/off) run by the parallel
// exp::Runner, with on/off paired on the identical graph per n.  Measures
// total-variation distance from uniform, the chi-squared statistic of the
// sampled-target histogram, and the per-draw hop/rejection overhead.
#include <cstdint>
#include <iostream>
#include <vector>

#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace gg = geogossip;

int main(int argc, char** argv) {
  std::int64_t samples = 200000;
  std::int64_t seed = 81;
  // Fresh graphs per cell; the harness --replicates flag overrides this.
  const std::int64_t replicates = 3;
  double radius_multiplier = 1.2;
  std::vector<std::size_t> ns{1024, 4096};

  gg::exp::SweepCli cli("fig_e9_rejection",
                        "E9: target-node uniformity via rejection sampling");
  cli.parser().add_flag("samples", &samples, "target draws per replicate",
                        {.above = 0});
  cli.parser().add_flag("seed", &seed, "master seed");
  cli.parser().add_flag("radius-mult", &radius_multiplier,
                        "radius multiplier", {.above = 0});
  cli.parser().add_flag("sizes", &ns, "comma-separated n values",
                        {.above = 1});
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  std::cout << "=== E9: sampled-target uniformity (TV distance, chi^2/df) "
               "===\n\n";

  const auto scenario = gg::exp::make_e9_rejection(
      ns, static_cast<std::uint64_t>(samples), radius_multiplier,
      static_cast<std::uint32_t>(replicates),
      static_cast<std::uint64_t>(seed));
  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  gg::ConsoleTable table({"n", "rejection", "TV dist", "chi^2/df",
                          "hops/draw", "rejects/draw"});
  for (const auto& cs : summary.cells) {
    table.cell(gg::format_count(cs.cell.n))
        .cell(cs.cell.param("rejection") != 0.0 ? "on" : "off")
        .cell(gg::format_fixed(cs.metric_mean("tv_distance"), 4))
        .cell(gg::format_fixed(cs.metric_mean("chi2_per_df"), 2))
        .cell(gg::format_fixed(cs.metric_mean("hops_per_draw"), 1))
        .cell(gg::format_fixed(cs.metric_mean("rejects_per_draw"), 2));
    table.end_row();
  }
  table.print(std::cout);
  std::cout << "\nchi^2/df ~ 1 means the sampled-target distribution is\n"
               "statistically indistinguishable from uniform; rejection\n"
               "buys uniformity for a constant-factor hop overhead.\n";
  return 0;
}
