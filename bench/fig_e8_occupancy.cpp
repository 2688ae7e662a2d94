// E8: the Chernoff occupancy argument of §3 — with ~sqrt(n) partition
// squares, every square holds (1 +- 1/10) sqrt(n) sensors w.h.p., which is
// what places the effective alphas inside (1/3, 1/2).
//
// One Scenario cell per n run by the parallel exp::Runner.  Per replicate
// the probe measures the worst relative occupancy deviation across the
// partition, whether ALL squares are within 10%, and the implied alpha
// range under beta = (2/5) E#; the Chernoff union-bound prediction rides
// along as a constant metric.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "geometry/grid.hpp"
#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace gg = geogossip;

int main(int argc, char** argv) {
  std::int64_t trials = 200;
  std::int64_t seed = 71;
  std::vector<std::size_t> ns{1024, 4096, 16384, 65536, 262144, 1048576};

  gg::exp::SweepCli cli("fig_e8_occupancy",
                        "E8: occupancy concentration across the partition");
  cli.parser().add_flag("trials", &trials, "deployments per n",
                        {.above = 0});
  cli.parser().add_flag("seed", &seed, "master seed");
  cli.parser().add_flag("sizes", &ns, "comma-separated n values",
                        {.above = 1});
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  std::cout << "=== E8: sqrt(n)-square occupancy concentration (paper §3) "
               "===\n\n";

  const auto scenario = gg::exp::make_e8_occupancy(
      ns, static_cast<std::uint32_t>(trials),
      static_cast<std::uint64_t>(seed));
  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  gg::ConsoleTable table({"n", "squares", "E#/square", "mean max|dev|",
                          "P(all<10%)", "1-Chernoff", "alpha range"});
  for (const auto& cs : summary.cells) {
    const auto squares = gg::geometry::paper_subsquare_count(
        static_cast<double>(cs.cell.n));
    const double expected =
        static_cast<double>(cs.cell.n) / static_cast<double>(squares);

    // Incremental += rather than one operator+ chain: GCC 12's -Wrestrict
    // fires a false positive (PR105329) on the chained form under -Werror.
    std::string alpha_window = "(";
    alpha_window += gg::format_fixed(cs.metrics.at("alpha_lo").min, 3);
    alpha_window += ", ";
    alpha_window += gg::format_fixed(cs.metrics.at("alpha_hi").max, 3);
    alpha_window += ")";
    table.cell(gg::format_count(cs.cell.n))
        .cell(static_cast<std::uint64_t>(squares))
        .cell(gg::format_fixed(expected, 1))
        .cell(gg::format_fixed(cs.metric_mean("max_dev"), 3))
        .cell(gg::format_fixed(cs.metric_mean("all_within"), 3))
        .cell(gg::format_fixed(cs.metric_mean("chernoff_lo"), 3))
        .cell(alpha_window);
    table.end_row();
  }
  table.print(std::cout);
  std::cout
      << "\nThe paper needs alpha = beta/#(square) in (1/3, 1/2), i.e. every\n"
         "square within ~10-20% of E#.  The measured max deviation shrinks\n"
         "as n grows (E# = sqrt(n) -> relative fluctuation n^-1/4), but at\n"
         "simulable n it exceeds 10% — exactly why the harmonic-beta mode\n"
         "exists (README: Substitutions from the paper) and why the\n"
         "paper's constants demand (log n)^8-sized leaves.\n";
  return 0;
}
