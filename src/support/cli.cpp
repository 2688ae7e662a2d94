#include "support/cli.hpp"

#include <cmath>
#include <iostream>
#include <sstream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip {

namespace {

/// A list flag's default as --help prints it: the elements as ostream
/// writes them, comma-separated.
template <typename T>
std::string join_commas(const std::vector<T>& values) {
  std::ostringstream os;
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i > 0 ? "," : "") << values[i];
  }
  return os.str();
}

/// `range` as the diagnostics print it: "", " > 1", " < 1" or " in (0, 1)".
std::string range_text(const FlagRange& range) {
  const bool lo = std::isfinite(range.above);
  const bool hi = std::isfinite(range.below);
  std::ostringstream os;
  if (lo && hi) {
    os << " in (" << range.above << ", " << range.below << ")";
  } else if (lo) {
    os << " > " << range.above;
  } else if (hi) {
    os << " < " << range.below;
  }
  return os.str();
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void ArgParser::add_flag(const std::string& name, std::int64_t* target,
                         const std::string& help, FlagRange range) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  flags_.push_back(
      Flag{name, Kind::kInt, target, help, std::to_string(*target), range});
}

void ArgParser::add_flag(const std::string& name, double* target,
                         const std::string& help, FlagRange range) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  std::ostringstream os;
  os << *target;
  flags_.push_back(Flag{name, Kind::kDouble, target, help, os.str(), range});
}

void ArgParser::add_flag(const std::string& name, std::string* target,
                         const std::string& help) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  flags_.push_back(Flag{name, Kind::kString, target, help,
                        target->empty() ? "\"\"" : *target, {}});
}

void ArgParser::add_flag(const std::string& name, bool* target,
                         const std::string& help) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  flags_.push_back(
      Flag{name, Kind::kBool, target, help, *target ? "true" : "false", {}});
}

void ArgParser::add_flag(const std::string& name, std::vector<double>* target,
                         const std::string& help, FlagRange range) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  flags_.push_back(Flag{name, Kind::kDoubleList, target, help,
                        join_commas(*target), range});
}

void ArgParser::add_flag(const std::string& name,
                         std::vector<std::size_t>* target,
                         const std::string& help, FlagRange range) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  flags_.push_back(Flag{name, Kind::kSizeList, target, help,
                        join_commas(*target), range});
}

const ArgParser::Flag* ArgParser::find(const std::string& name) const noexcept {
  for (const auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void ArgParser::assign(const Flag& flag, const std::string& value) {
  const auto in_range = [&flag](auto number) {
    const auto x = static_cast<double>(number);
    if (!(x > flag.range.above && x < flag.range.below)) {
      throw ArgumentError("out of range");
    }
    return number;
  };
  try {
    switch (flag.kind) {
      case Kind::kInt:
        *static_cast<std::int64_t*>(flag.target) = in_range(parse_int(value));
        return;
      case Kind::kDouble:
        *static_cast<double*>(flag.target) = in_range(parse_double(value));
        return;
      case Kind::kString:
        *static_cast<std::string*>(flag.target) = value;
        return;
      case Kind::kBool:
        *static_cast<bool*>(flag.target) = parse_bool(value);
        return;
      case Kind::kDoubleList: {
        std::vector<double> list;
        for (const auto& element : split(value, ',')) {
          const double number = parse_double(element);
          if (number < 0.0) throw ArgumentError("negative element");
          list.push_back(in_range(number));
        }
        *static_cast<std::vector<double>*>(flag.target) = std::move(list);
        return;
      }
      case Kind::kSizeList: {
        std::vector<std::size_t> list;
        for (const auto& element : split(value, ',')) {
          const std::int64_t number = parse_int(element);
          if (number < 0) throw ArgumentError("negative element");
          list.push_back(static_cast<std::size_t>(in_range(number)));
        }
        *static_cast<std::vector<std::size_t>*>(flag.target) =
            std::move(list);
        return;
      }
    }
  } catch (const ArgumentError&) {
    // A malformed or out-of-range value is the user's mistake: name the
    // flag, the accepted values and the value, not the parser's internal
    // check.  A list's lower bound of 0 or more makes "non-negative" moot.
    const char* sign = flag.range.above >= 0.0 ? "" : "non-negative ";
    std::string expected;
    switch (flag.kind) {
      case Kind::kInt:
        expected = "an integer";
        break;
      case Kind::kDouble:
        expected = "a finite number";
        break;
      case Kind::kBool:
        expected = "true or false";
        break;
      case Kind::kDoubleList:
        expected = std::string("a comma-separated list of ") + sign +
                   "numbers";
        break;
      case Kind::kSizeList:
        expected = std::string("a comma-separated list of ") + sign +
                   "integers";
        break;
      case Kind::kString:
        break;  // any text is a string
    }
    throw ArgumentError("flag --" + flag.name + " expects " + expected +
                        range_text(flag.range) + ", got '" + value + "'");
  }
}

int parse_exit_code(ParseResult result) noexcept {
  return result == ParseResult::kError ? 1 : 0;
}

ParseResult ArgParser::parse(int argc, const char* const* argv) {
  positional_.clear();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::cout << help_text();
        return ParseResult::kHelp;
      }
      if (!starts_with(arg, "--")) {
        positional_.push_back(arg);
        continue;
      }
      std::string name = arg.substr(2);
      std::optional<std::string> inline_value;
      const std::size_t eq = name.find('=');
      if (eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name = name.substr(0, eq);
      }
      const Flag* flag = find(name);
      if (flag == nullptr) throw ArgumentError("unknown flag --" + name);
      if (inline_value) {
        assign(*flag, *inline_value);
        continue;
      }
      if (flag->kind == Kind::kBool) {
        // A bare boolean flag means "true"; an explicit value may follow
        // only in the --name=value form handled above.
        *static_cast<bool*>(flag->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        throw ArgumentError("flag --" + name + " expects a value");
      }
      assign(*flag, argv[++i]);
    }
  } catch (const ArgumentError& error) {
    std::cerr << program_ << ": " << error.what() << "\n"
              << "run with --help for the flag list\n";
    return ParseResult::kError;
  }
  return ParseResult::kOk;
}

std::string ArgParser::help_text() const {
  std::ostringstream os;
  os << program_ << " — " << summary_ << "\n\nFlags:\n";
  std::size_t width = 0;
  for (const auto& f : flags_) width = std::max(width, f.name.size());
  for (const auto& f : flags_) {
    os << "  --" << f.name << std::string(width - f.name.size(), ' ')
       << "  " << f.help << " (default: " << f.default_text << ")\n";
  }
  os << "  --help" << std::string(width > 4 ? width - 4 : 0, ' ')
     << "  print this message\n";
  return os.str();
}

}  // namespace geogossip
