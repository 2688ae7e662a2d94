#include "support/cli.hpp"

#include <iostream>
#include <sstream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void ArgParser::add_flag(const std::string& name, std::int64_t* target,
                         const std::string& help) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  flags_.push_back(
      Flag{name, Kind::kInt, target, help, std::to_string(*target)});
}

void ArgParser::add_flag(const std::string& name, double* target,
                         const std::string& help) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  std::ostringstream os;
  os << *target;
  flags_.push_back(Flag{name, Kind::kDouble, target, help, os.str()});
}

void ArgParser::add_flag(const std::string& name, std::string* target,
                         const std::string& help) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  flags_.push_back(Flag{name, Kind::kString, target, help,
                        target->empty() ? "\"\"" : *target});
}

void ArgParser::add_flag(const std::string& name, bool* target,
                         const std::string& help) {
  GG_CHECK_ARG(target != nullptr, "add_flag: null target");
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  flags_.push_back(
      Flag{name, Kind::kBool, target, help, *target ? "true" : "false"});
}

const ArgParser::Flag* ArgParser::find(const std::string& name) const noexcept {
  for (const auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void ArgParser::assign(const Flag& flag, const std::string& value) {
  try {
    switch (flag.kind) {
      case Kind::kInt:
        *static_cast<std::int64_t*>(flag.target) = parse_int(value);
        return;
      case Kind::kDouble:
        *static_cast<double*>(flag.target) = parse_double(value);
        return;
      case Kind::kString:
        *static_cast<std::string*>(flag.target) = value;
        return;
      case Kind::kBool:
        *static_cast<bool*>(flag.target) = parse_bool(value);
        return;
    }
  } catch (const ArgumentError&) {
    // A malformed value is the user's mistake: name the flag and the
    // value, not the parser's internal check.
    const char* expected = flag.kind == Kind::kInt      ? "an integer"
                           : flag.kind == Kind::kDouble ? "a number"
                                                        : "true or false";
    throw ArgumentError("flag --" + flag.name + " expects " + expected +
                        ", got '" + value + "'");
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
