// E3: Lemma 2 — perturbed affine averaging stays inside the envelope
//   n^(a/2) ((1-1/(2n))^(t/2) ||y0|| + 8 sqrt(2) n^1.5 eps)
// with probability >= 1 - 5/n^a, and the error stalls at a noise floor
// (the reason the paper shrinks eps_r per hierarchy level).
//
// One Scenario cell per (noise, horizon), paired on seed stream 0 and run
// by the parallel exp::Runner; the per-trial `violation` indicator and the
// q95 of the `norm` metric reproduce the original driver's columns.
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/complete_graph_model.hpp"
#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace gg = geogossip;

int main(int argc, char** argv) {
  std::int64_t n = 64;
  std::int64_t trials = 300;
  std::int64_t seed = 31;
  double a = 1.0;
  std::vector<double> noise_values{1e-6, 1e-5, 1e-4};

  gg::exp::SweepCli cli("fig_e3_perturbed",
                        "E3: Lemma 2 perturbed-averaging envelope");
  cli.parser().add_flag("n", &n, "complete-graph size", {.above = 1});
  cli.parser().add_flag("trials", &trials,
                        "independent runs per configuration", {.above = 0});
  cli.parser().add_flag("seed", &seed, "master seed");
  cli.parser().add_flag("a", &a, "Lemma 2 exponent a", {.above = 0});
  cli.parser().add_flag("noises", &noise_values,
                        "comma-separated noise bounds eps");
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  const auto nn = static_cast<std::size_t>(n);
  std::cout << "=== E3: Lemma 2 envelope on K_" << nn << " (a=" << a
            << ", allowed failure 5/n^a = "
            << gg::format_fixed(gg::core::lemma2_failure_probability(nn, a), 4)
            << ") ===\n\n";

  const auto scenario = gg::exp::make_e3_perturbed(
      nn, a, noise_values, static_cast<std::uint32_t>(trials),
      static_cast<std::uint64_t>(seed));
  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  const double allowed = gg::core::lemma2_failure_probability(nn, a);
  gg::ConsoleTable table({"noise", "t", "mean ||y||", "p95 ||y||",
                          "envelope", "violations", "ok"});
  for (const auto& cs : summary.cells) {
    const auto& norm = cs.metrics.at("norm");
    const double violation_rate = cs.metric_mean("violation");
    table.cell(gg::format_sci(cs.cell.param("noise"), 0))
        .cell(static_cast<std::uint64_t>(cs.cell.param("t")))
        .cell(gg::format_sci(norm.mean, 2))
        .cell(gg::format_sci(norm.q95, 2))
        .cell(gg::format_sci(cs.metric_mean("envelope"), 2))
        .cell(gg::format_fixed(violation_rate, 4))
        .cell(violation_rate <= allowed + 0.03 ? "yes" : "NO");
    table.end_row();
  }
  table.print(std::cout);

  std::cout << "\nNoise floor: with per-step |nu| < eps the norm stalls at\n"
               "Theta(n) * eps instead of contracting to 0 — compare the\n"
               "mean at t = 128 n across the noise column; this is why the\n"
               "paper tightens eps_r per hierarchy level (Lemma 2 / §6).\n";
  return 0;
}
