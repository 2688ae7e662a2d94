// E2: Corollary 1/2 — P(||x(t)|| > eps ||x(0)||) <= eps^-2 (1 - 1/(2n))^t.
//
// Empirical tail frequencies vs. the Markov bound over a grid of (t, eps).
// The grid is one Scenario (every cell pinned to seed stream 0, so all eps
// thresholds read the same trajectory batch) run by the parallel
// exp::Runner; the per-trial `exceed` indicator aggregates to the
// empirical tail.  The bound is loose (Markov), so the measured tail
// should sit clearly below it everywhere; both must decay with t.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "stats/confidence.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace gg = geogossip;

int main(int argc, char** argv) {
  std::int64_t n = 256;
  std::int64_t trials = 600;
  std::int64_t seed = 21;
  std::vector<double> eps_values{0.5, 0.3, 0.1};

  gg::exp::SweepCli cli("fig_e2_tail_bound",
                        "E2: Corollary 1 tail probability vs Markov bound");
  cli.parser().add_flag("n", &n, "complete-graph size", {.above = 1});
  cli.parser().add_flag("trials", &trials, "independent runs per t",
                        {.above = 0});
  cli.parser().add_flag("seed", &seed, "master seed");
  cli.parser().add_flag("epsilons", &eps_values,
                        "comma-separated eps thresholds", {.above = 0});
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  const auto nn = static_cast<std::size_t>(n);

  std::cout << "=== E2: tail P(||x(t)|| > eps) on K_" << nn << " (trials="
            << trials << ") ===\n\n";

  const auto scenario = gg::exp::make_e2_tail(
      nn, eps_values, static_cast<std::uint32_t>(trials),
      static_cast<std::uint64_t>(seed));
  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  gg::ConsoleTable table(
      {"t", "eps", "empirical tail", "95% hi", "Markov bound", "ok"});
  for (const auto& cs : summary.cells) {
    const auto t = static_cast<std::uint64_t>(cs.cell.param("t"));
    const double eps = cs.cell.param("eps");
    const auto& exceed = cs.metrics.at("exceed");
    const auto exceed_count = static_cast<std::uint64_t>(
        std::llround(exceed.mean * static_cast<double>(exceed.count)));
    const auto interval = gg::stats::proportion_confidence_interval(
        exceed_count, exceed.count);
    const double bound = cs.metric_mean("bound");
    table.cell(t)
        .cell(gg::format_fixed(eps, 2))
        .cell(gg::format_fixed(exceed.mean, 4))
        .cell(gg::format_fixed(interval.hi, 4))
        .cell(gg::format_fixed(bound, 4))
        .cell(interval.hi <= bound + 1e-12 ? "yes" : "NO");
    table.end_row();
  }
  table.print(std::cout);
  std::cout << "\n'ok' = the 95% upper confidence limit of the empirical\n"
               "tail sits below the Corollary 1 bound.\n";
  return 0;
}
