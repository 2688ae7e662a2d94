// E4: the closed-form E[A^T A] and its zero-sum contraction factor
// lambda_max(P E[A^T A] P) vs Lemma 1's explicit proof bound
// 1 - 8/(9(n-1)) and the stated 1 - 1/(2n).
//
// One Scenario cell per (n, alpha family) run by the parallel exp::Runner;
// the paper family redraws its alphas every replicate, so the lambda
// column is a mean over coefficient draws.
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
  std::int64_t seed = 41;
  std::int64_t iterations = 800;
  // Coefficient draws per (n, family); the harness --replicates flag
  // overrides the scenario count, so the dedicated flag is gone.
  const std::int64_t replicates = 3;
  std::vector<std::size_t> ns{8, 16, 32, 64, 128, 256, 512};

  gg::exp::SweepCli cli("fig_e4_spectral",
                        "E4: contraction spectrum of E[A^T A]");
  cli.parser().add_flag("seed", &seed, "master seed");
  cli.parser().add_flag("iterations", &iterations, "power-iteration steps",
                        {.above = 0});
  // At n = 2 the zero-sum subspace is one line, which the convex mode
  // maps to 0: the power iteration has nothing to converge to.
  cli.parser().add_flag("sizes", &ns, "comma-separated n values",
                        {.above = 2});
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  std::cout << "=== E4: lambda_max of E[A^T A] on the zero-sum subspace ===\n\n";

  const auto scenario = gg::exp::make_e4_spectral(
      ns, static_cast<std::uint32_t>(iterations),
      static_cast<std::uint32_t>(replicates),
      static_cast<std::uint64_t>(seed));
  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  gg::ConsoleTable table({"n", "alpha family", "lambda_max",
                          "1-8/(9(n-1))", "1-1/(2n)", "gap*n"});
  table.set_alignment(1, gg::Align::kLeft);
  for (const auto& cs : summary.cells) {
    const double lambda = cs.metric_mean("lambda");
    table.cell(static_cast<std::uint64_t>(cs.cell.n))
        .cell(cs.cell.label)
        .cell(gg::format_fixed(lambda, 6))
        .cell(gg::format_fixed(cs.metric_mean("proof_bound"), 6))
        .cell(gg::format_fixed(cs.metric_mean("stated_bound"), 6))
        .cell(gg::format_fixed(cs.metric_mean("gap_times_n"), 3));
    table.end_row();
  }
  table.print(std::cout);
  std::cout << "\n'gap*n' column: (1 - lambda) n — a constant confirms the\n"
               "1 - Theta(1/n) contraction; Lemma 1 promises >= 0.5.\n";
  return 0;
}
