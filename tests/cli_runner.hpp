// Runs the sweep harness in-process on an argument list, the way a
// driver's main does, capturing what it prints; and puts the replicate
// records a run streams into the order a merge writes them.
#ifndef GEOGOSSIP_TESTS_CLI_RUNNER_HPP
#define GEOGOSSIP_TESTS_CLI_RUNNER_HPP

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
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

/// The record lines of `text` sorted by (cell_index, replicate).
inline std::string sorted_by_key(const std::string& text) {
  const auto field = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    return std::stoull(line.substr(at + key.size() + 3));
  };
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end(),
            [&](const std::string& a, const std::string& b) {
              return std::pair(field(a, "cell_index"), field(a, "replicate")) <
                     std::pair(field(b, "cell_index"), field(b, "replicate"));
            });
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

}  // namespace geogossip

#endif  // GEOGOSSIP_TESTS_CLI_RUNNER_HPP
