// Runs the sweep harness in-process on an argument list, the way a
// driver's main does, capturing what it prints.
#ifndef GEOGOSSIP_TESTS_CLI_RUNNER_HPP
#define GEOGOSSIP_TESTS_CLI_RUNNER_HPP

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep_cli.hpp"

namespace geogossip {

struct CliOutcome {
  int exit_code = 0;
  std::string stdout_text;
  std::string stderr_text;
};

inline CliOutcome run_sweep_cli(const std::vector<std::string>& args,
                                const exp::Scenario& scenario) {
  std::vector<std::string> storage{"sweep_cli_test"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());

  std::ostringstream captured;
  std::streambuf* const saved = std::cerr.rdbuf(captured.rdbuf());
  CliOutcome outcome;
  exp::SweepCli cli("sweep_cli_test", "in-process harness run");
  if (const auto exit = cli.parse(static_cast<int>(argv.size()),
                                  argv.data())) {
    outcome.exit_code = *exit;
  } else {
    std::ostringstream out;
    outcome.exit_code = cli.run(scenario, out);
    outcome.stdout_text = out.str();
  }
  std::cerr.rdbuf(saved);
  outcome.stderr_text = captured.str();
  return outcome;
}

}  // namespace geogossip

#endif  // GEOGOSSIP_TESTS_CLI_RUNNER_HPP
