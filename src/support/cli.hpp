// Tiny declarative command-line flag parser used by examples and benches.
//
// Supports --name=value and --name value forms, bool flags without a value
// ("--verbose"), comma-separated list flags ("--sizes=512,1024"),
// automatic --help text, and strict rejection of unknown flags, malformed
// values and values outside a flag's declared range, so typos in sweep
// scripts fail loudly, before any work.
#ifndef GEOGOSSIP_SUPPORT_CLI_HPP
#define GEOGOSSIP_SUPPORT_CLI_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace geogossip {

/// What ArgParser::parse found.  Drivers translate this into an exit code
/// with parse_exit_code(): --help is a successful run (0), a malformed
/// command line is a failure (1) — so CI smoke runs cannot silently pass
/// on typos.
enum class ParseResult {
  kOk,    ///< flags consumed; proceed
  kHelp,  ///< --help printed; exit 0 without running
  kError, ///< unknown flag / malformed value, reported on stderr; exit 1
};

/// Conventional process exit code for a non-kOk parse result.
int parse_exit_code(ParseResult result) noexcept;

/// The open interval (above, below) a numeric flag's value must lie in
/// (every element, for a list flag).  ArgParser::parse reports a value
/// outside it like a malformed one, so a value the program cannot run on
/// fails before any work.  The default admits every value the kind parses.
struct FlagRange {
  double above = -std::numeric_limits<double>::infinity();
  double below = std::numeric_limits<double>::infinity();
};

class ArgParser {
 public:
  /// `program` and `summary` appear in the --help output.
  ArgParser(std::string program, std::string summary);

  /// Registers a flag; the pointer must outlive parse().  The current value
  /// of the target is taken as the documented default.
  void add_flag(const std::string& name, std::int64_t* target,
                const std::string& help, FlagRange range = {});
  void add_flag(const std::string& name, double* target,
                const std::string& help, FlagRange range = {});
  void add_flag(const std::string& name, std::string* target,
                const std::string& help);
  void add_flag(const std::string& name, bool* target,
                const std::string& help);
  /// Comma-separated lists of non-negative finite numbers / sizes.  Every
  /// element is parsed inside parse(), so a malformed, empty, negative or
  /// non-finite element is a kError (and so is an empty value: a list
  /// holds at least one element).
  void add_flag(const std::string& name, std::vector<double>* target,
                const std::string& help, FlagRange range = {});
  void add_flag(const std::string& name, std::vector<std::size_t>* target,
                const std::string& help, FlagRange range = {});

  /// Parses argv.  Returns kHelp if --help was requested (help text already
  /// printed to stdout) and kError on unknown flags or malformed values
  /// (diagnostic already printed to stderr).  Never throws on bad input, so
  /// every main() can be a simple result check.
  ParseResult parse(int argc, const char* const* argv);

  /// Positional arguments remaining after flag extraction.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  std::string help_text() const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool, kDoubleList, kSizeList };

  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_text;
    FlagRange range;
  };

  const Flag* find(const std::string& name) const noexcept;
  void assign(const Flag& flag, const std::string& value);

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_CLI_HPP
