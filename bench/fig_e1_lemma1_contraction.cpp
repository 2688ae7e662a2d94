// E1: Lemma 1 — E||x(t)||^2 < (1 - 1/(2n))^t ||x(0)||^2 on K_n with
// mirrored affine coefficients alpha_i ~ U(1/3, 1/2).
//
// One Scenario cell per (n, alpha mode, horizon), run by the parallel
// exp::Runner; horizon cells of a configuration share a seed stream, so
// the mean-||x(t)||^2 column really is one trajectory ensemble sampled at
// five depths.  Prints the trajectory against the bound, the fitted
// per-step contraction rate, and a log-scale chart of the first size.
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/complete_graph_model.hpp"
#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "stats/regression.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace gg = geogossip;
using gg::core::AlphaMode;

int main(int argc, char** argv) {
  std::int64_t trials = 96;
  std::int64_t seed = 11;
  std::vector<std::size_t> ns{32, 128, 512};

  gg::exp::SweepCli cli("fig_e1_lemma1_contraction",
                        "E1: Lemma 1 contraction on the complete graph");
  cli.parser().add_flag("trials", &trials,
                        "independent runs per configuration", {.above = 0});
  cli.parser().add_flag("seed", &seed, "master seed");
  cli.parser().add_flag("sizes", &ns, "comma-separated n values",
                        {.above = 1});
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  std::cout << "=== E1: Lemma 1 — mean ||x(t)||^2 vs (1-1/2n)^t bound ===\n\n";

  const auto scenario = gg::exp::make_e1_contraction(
      ns, static_cast<std::uint32_t>(trials),
      static_cast<std::uint64_t>(seed));
  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  // Re-group the flat cell list into (n, mode) trajectories.
  for (const std::size_t n : ns) {
    for (const auto mode : {AlphaMode::kPaperFixed, AlphaMode::kConvexHalf,
                            AlphaMode::kEndpointThird}) {
      gg::ConsoleTable table({"t", "mean ||x||^2", "bound", "ratio"});
      std::vector<double> ts;
      std::vector<double> values;
      for (const auto& cs : summary.cells) {
        if (cs.cell.n != n) continue;
        if (static_cast<AlphaMode>(static_cast<int>(
                cs.cell.param("alpha_mode"))) != mode) {
          continue;
        }
        const auto t = static_cast<std::uint64_t>(cs.cell.param("t"));
        const double norm_sq = cs.metric_mean("norm_sq");
        const double bound = cs.metric_mean("bound");
        table.cell(t)
            .cell(gg::format_sci(norm_sq, 3))
            .cell(gg::format_sci(bound, 3))
            .cell(gg::format_fixed(norm_sq / bound, 3));
        table.end_row();
        if (norm_sq > 0.0) {
          ts.push_back(static_cast<double>(t));
          values.push_back(norm_sq);
        }
      }

      std::cout << "--- n=" << n << ", alpha="
                << gg::core::alpha_mode_name(mode) << " ---\n";
      table.print(std::cout);
      if (ts.size() >= 3) {
        const auto fit = gg::stats::fit_exponential(ts, values);
        const double bound_rate =
            1.0 - 1.0 / (2.0 * static_cast<double>(n));
        std::cout << "fitted per-step contraction: "
                  << gg::format_fixed(fit.rate, 6) << "  (bound "
                  << gg::format_fixed(bound_rate, 6) << ", R^2 "
                  << gg::format_fixed(fit.r_squared, 4) << ")\n";
      }
      std::cout << '\n';
    }
  }

  // Chart for the first size, paper mode vs bound — straight off the
  // aggregated horizon cells.
  const std::size_t chart_n = ns.front();
  gg::AsciiChart::Options chart_options;
  chart_options.log_y = true;
  gg::AsciiChart chart(chart_options);
  std::vector<double> ts;
  std::vector<double> sim;
  std::vector<double> bound;
  for (const auto& cs : summary.cells) {
    if (cs.cell.n != chart_n) continue;
    if (static_cast<AlphaMode>(static_cast<int>(
            cs.cell.param("alpha_mode"))) != AlphaMode::kPaperFixed) {
      continue;
    }
    ts.push_back(cs.cell.param("t"));
    sim.push_back(cs.metric_mean("norm_sq"));
    bound.push_back(cs.metric_mean("bound"));
  }
  chart.add_series("simulated mean ||x(t)||^2 (n=" +
                       std::to_string(chart_n) + ")",
                   '*', ts, sim);
  chart.add_series("lemma 1 bound", '-', ts, bound);
  chart.print(std::cout);
  return 0;
}
