// Unit tests for the support module: RNG, checks, strings, CSV, CLI,
// logging, tables, whole-file reads.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/read_file.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace geogossip {
namespace {

// ---------------------------------------------------------------- check ----

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(GG_CHECK(1 + 1 == 2, "arithmetic"));
  EXPECT_NO_THROW(GG_CHECK_ARG(true, "ok"));
}

TEST(Check, FailingInvariantThrowsCheckError) {
  EXPECT_THROW(GG_CHECK(false, "boom"), CheckError);
}

TEST(Check, FailingArgumentThrowsArgumentError) {
  EXPECT_THROW(GG_CHECK_ARG(false, "bad arg"), ArgumentError);
}

TEST(Check, MessageContainsExpressionAndLocation) {
  try {
    GG_CHECK(2 < 1, "custom context");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DeriveSeedDecorrelatesStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) seeds.insert(derive_seed(7, s));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRespectsBoundsAndValidatesThem) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
  EXPECT_THROW(rng.uniform(1.0, 1.0), ArgumentError);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ArgumentError);
}

TEST(Rng, BelowCoversRangeUniformly) {
  Rng rng(5);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<int>(kBuckets), 600);
  }
  EXPECT_THROW(rng.below(0), ArgumentError);
}

TEST(Rng, BelowExcludingNeverReturnsExcluded) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below_excluding(7, 3);
    EXPECT_NE(v, 3u);
    EXPECT_LT(v, 7u);
  }
  EXPECT_THROW(rng.below_excluding(1, 0), ArgumentError);
}

TEST(Rng, BernoulliEdgeCasesAndRate) {
  Rng rng(8);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.02);
}

// ---------------------------------------------------------- string_util ----

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, TrimWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(StringUtil, FormatHelpers) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04");
  EXPECT_EQ(format_si(1234.0), "1.23k");
  EXPECT_EQ(format_si(12.0), "12");
  EXPECT_EQ(format_si(5.1e7), "51.0M");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(7), "7");
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double(" 2.5 "), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3"), -1e-3);
  EXPECT_THROW(parse_double("abc"), ArgumentError);
  EXPECT_THROW(parse_double("1.5x"), ArgumentError);
  EXPECT_THROW(parse_double(""), ArgumentError);
  // strtod reads these; a flag value never means them.
  for (const char* text : {"nan", "NaN", "inf", "-inf", "infinity", "1e400"}) {
    EXPECT_THROW(parse_double(text), ArgumentError) << text;
  }
}

TEST(StringUtil, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_int("4.2"), ArgumentError);
  EXPECT_THROW(parse_int(""), ArgumentError);
}

TEST(StringUtil, ParseBool) {
  EXPECT_TRUE(parse_bool("true"));
  EXPECT_TRUE(parse_bool("YES"));
  EXPECT_TRUE(parse_bool("1"));
  EXPECT_FALSE(parse_bool("false"));
  EXPECT_FALSE(parse_bool("No"));
  EXPECT_THROW(parse_bool("maybe"), ArgumentError);
}

// -------------------------------------------------------------- logging ----

TEST(Logging, LevelFiltering) {
  std::ostringstream sink;
  LogConfig::set_sink(sink);
  LogConfig::set_level(LogLevel::kWarn);
  log_info("hidden ", 1);
  log_warn("visible ", 2);
  LogConfig::set_level(LogLevel::kWarn);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible 2"), std::string::npos);
  LogConfig::set_sink(std::cerr);
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(log_level_name(LogLevel::kError), "ERROR");
}

// ------------------------------------------------------------------ csv ----

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

/// `text` through json_escape and back through the parser.
std::string round_trip(const std::string& text) {
  std::string literal(1, '"');
  literal += json_escape(text);
  literal += '"';
  return parse_json(literal).text;
}

TEST(Json, EscapeRoundTripsEveryAsciiByteThroughTheParser) {
  std::string all;
  for (int byte = 0x00; byte <= 0x7f; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    EXPECT_EQ(round_trip(one), one) << "byte 0x" << std::hex << byte;
    all += one;
  }
  EXPECT_EQ(round_trip(all), all);
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"n", "value"});
  csv.field(std::int64_t{10}).field(3.5).end_row();
  csv.row({"20", "x,y"});
  EXPECT_EQ(out.str(), "n,value\n10,3.5\n20,\"x,y\"\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, EnforcesDiscipline) {
  std::ostringstream out;
  CsvWriter csv(out);
  EXPECT_THROW(csv.field("premature"), CheckError);  // row before header
  csv.header({"a", "b"});
  EXPECT_THROW(csv.header({"again"}), CheckError);
  csv.field("1");
  EXPECT_THROW(csv.end_row(), CheckError);  // width mismatch
}

// ------------------------------------------------------------------ cli ----

TEST(Cli, ParsesAllValueForms) {
  std::int64_t n = 10;
  double eps = 0.5;
  std::string name = "default";
  bool verbose = false;
  ArgParser parser("prog", "test");
  parser.add_flag("n", &n, "count");
  parser.add_flag("eps", &eps, "accuracy");
  parser.add_flag("name", &name, "label");
  parser.add_flag("verbose", &verbose, "chatty");

  const char* argv[] = {"prog", "--n=42", "--eps", "0.125",
                        "--name=run1", "--verbose", "positional"};
  ASSERT_EQ(parser.parse(7, argv), ParseResult::kOk);
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(eps, 0.125);
  EXPECT_EQ(name, "run1");
  EXPECT_TRUE(verbose);
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "positional");
}

TEST(Cli, BoolExplicitValueForm) {
  bool flag = true;
  ArgParser parser("prog", "test");
  parser.add_flag("flag", &flag, "a bool");
  const char* argv[] = {"prog", "--flag=false"};
  ASSERT_EQ(parser.parse(2, argv), ParseResult::kOk);
  EXPECT_FALSE(flag);
}

TEST(Cli, RejectsUnknownFlagAndMissingValueWithKError) {
  // A bad command line is the user's mistake: the message names the flag
  // and never leaks a check expression or a source path.
  std::int64_t n = 0;
  double eps = 0.0;
  bool verbose = false;
  std::string csv;
  std::vector<std::size_t> sizes;
  std::vector<double> factors;
  ArgParser parser("prog", "test");
  parser.add_flag("n", &n, "count");
  parser.add_flag("eps", &eps, "accuracy");
  parser.add_flag("verbose", &verbose, "chatty");
  parser.add_flag("csv", &csv, "output");
  parser.add_flag("sizes", &sizes, "sizes");
  parser.add_flag("factors", &factors, "factors");
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases =
      {
          {{"prog", "--bogus=1"}, "unknown flag --bogus"},
          {{"prog", "--shard", "0/2"}, "unknown flag --shard"},
          {{"prog", "--n"}, "flag --n expects a value"},
          {{"prog", "--csv"}, "flag --csv expects a value"},
          {{"prog", "--n=abc"}, "flag --n expects an integer, got 'abc'"},
          {{"prog", "--n", "1.5"}, "flag --n expects an integer, got '1.5'"},
          {{"prog", "--eps=x"}, "flag --eps expects a finite number, got 'x'"},
          {{"prog", "--eps=nan"},
           "flag --eps expects a finite number, got 'nan'"},
          {{"prog", "--eps", "inf"},
           "flag --eps expects a finite number, got 'inf'"},
          {{"prog", "--sizes=512,abc"},
           "flag --sizes expects a comma-separated list of non-negative "
           "integers, got '512,abc'"},
          {{"prog", "--sizes=-4"}, "flag --sizes expects"},
          {{"prog", "--sizes=1.5"}, "flag --sizes expects"},
          {{"prog", "--sizes=64,,128"}, "flag --sizes expects"},
          {{"prog", "--sizes="}, "flag --sizes expects"},
          {{"prog", "--factors=abc"},
           "flag --factors expects a comma-separated list of non-negative "
           "numbers, got 'abc'"},
          {{"prog", "--factors=1,-0.5"}, "flag --factors expects"},
          {{"prog", "--factors=0.5,nan"}, "flag --factors expects"},
          {{"prog", "--factors", "inf"}, "flag --factors expects"},
          {{"prog", "--verbose=maybe"},
           "flag --verbose expects true or false, got 'maybe'"},
      };
  for (const auto& [argv, message] : cases) {
    SCOPED_TRACE(message);
    testing::internal::CaptureStderr();
    EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
              ParseResult::kError);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(message), std::string::npos) << err;
    EXPECT_EQ(err.find("GG_CHECK"), std::string::npos) << err;
    EXPECT_EQ(err.find("cli.cpp"), std::string::npos) << err;
  }
}

TEST(Cli, ListFlagsParseEveryElement) {
  std::vector<std::size_t> sizes{8, 16};
  std::vector<double> factors{0.05, 1};
  ArgParser parser("prog", "test");
  parser.add_flag("sizes", &sizes, "sizes");
  parser.add_flag("factors", &factors, "factors");
  const std::string help = parser.help_text();
  EXPECT_NE(help.find("(default: 8,16)"), std::string::npos) << help;
  EXPECT_NE(help.find("(default: 0.05,1)"), std::string::npos) << help;

  const char* argv[] = {"prog", "--sizes= 512, 1024", "--factors", "0,2.5,1e-3"};
  ASSERT_EQ(parser.parse(4, argv), ParseResult::kOk);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{512, 1024}));
  EXPECT_EQ(factors, (std::vector<double>{0.0, 2.5, 1e-3}));

  // A refused value leaves the target as it was.
  const char* bad[] = {"prog", "--sizes=4,x"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(parser.parse(2, bad), ParseResult::kError);
  (void)testing::internal::GetCapturedStderr();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{512, 1024}));
}

TEST(Cli, RangedFlagsAcceptOnlyTheirOpenInterval) {
  // A value that parses but that no program can run on (n = 1, eps = 1,
  // zero trials) fails in parse(), named like a malformed one, and leaves
  // the target as it was.
  std::int64_t trials = 5;
  double eps = 0.5;
  std::vector<std::size_t> sizes{64};
  std::vector<double> factors{1.0};
  ArgParser parser("prog", "test");
  parser.add_flag("trials", &trials, "trials", {.above = 0});
  parser.add_flag("eps", &eps, "accuracy", {.above = 0, .below = 1});
  parser.add_flag("sizes", &sizes, "sizes", {.above = 1});
  parser.add_flag("factors", &factors, "factors", {.above = 0});

  const char* ok[] = {"prog", "--trials=1", "--eps=0.999", "--sizes=2,500",
                      "--factors=1e-9"};
  ASSERT_EQ(parser.parse(5, ok), ParseResult::kOk);
  EXPECT_EQ(trials, 1);
  EXPECT_EQ(eps, 0.999);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 500}));
  EXPECT_EQ(factors, (std::vector<double>{1e-9}));

  const std::vector<std::pair<std::vector<const char*>, std::string>> cases =
      {
          {{"prog", "--trials=0"}, "flag --trials expects an integer > 0, "
                                   "got '0'"},
          {{"prog", "--trials", "-3"}, "flag --trials expects an integer > 0"},
          {{"prog", "--eps=1"},
           "flag --eps expects a finite number in (0, 1), got '1'"},
          {{"prog", "--eps=0"}, "flag --eps expects a finite number in (0, 1)"},
          {{"prog", "--sizes=500,1"},
           "flag --sizes expects a comma-separated list of integers > 1, "
           "got '500,1'"},
          {{"prog", "--sizes=0"}, "flag --sizes expects"},
          {{"prog", "--factors=2,0"},
           "flag --factors expects a comma-separated list of numbers > 0, "
           "got '2,0'"},
          {{"prog", "--factors=-1"}, "flag --factors expects"},
      };
  for (const auto& [argv, message] : cases) {
    SCOPED_TRACE(message);
    testing::internal::CaptureStderr();
    EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
              ParseResult::kError);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(message), std::string::npos) << err;
    EXPECT_EQ(err.find("GG_CHECK"), std::string::npos) << err;
  }
  EXPECT_EQ(trials, 1);
  EXPECT_EQ(eps, 0.999);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 500}));
  EXPECT_EQ(factors, (std::vector<double>{1e-9}));
}

TEST(Cli, ExitCodesDistinguishHelpFromError) {
  // --help is a successful run; a typo must fail the process so CI smoke
  // runs cannot silently pass on malformed command lines.
  EXPECT_EQ(parse_exit_code(ParseResult::kHelp), 0);
  EXPECT_EQ(parse_exit_code(ParseResult::kError), 1);
  EXPECT_EQ(parse_exit_code(ParseResult::kOk), 0);
}

TEST(Cli, RejectsDuplicateRegistration) {
  std::int64_t n = 0;
  ArgParser parser("prog", "test");
  parser.add_flag("n", &n, "count");
  EXPECT_THROW(parser.add_flag("n", &n, "again"), ArgumentError);
}

TEST(Cli, HelpReturnsKHelpAndMentionsFlags) {
  std::int64_t n = 3;
  ArgParser parser("prog", "summary line");
  parser.add_flag("n", &n, "the count");
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(parser.parse(2, argv), ParseResult::kHelp);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("summary line"), std::string::npos);
  EXPECT_NE(out.find("--n"), std::string::npos);
  EXPECT_NE(out.find("default: 3"), std::string::npos);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignsColumns) {
  ConsoleTable table({"name", "value"});
  table.set_alignment(0, Align::kLeft);
  table.cell("a").cell(std::int64_t{1}).end_row();
  table.cell("long-name").cell(std::int64_t{22}).end_row();
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  // Header rule present.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, RejectsRowWidthMismatch) {
  ConsoleTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ArgumentError);
}

TEST(Table, DoubleFormatting) {
  ConsoleTable table({"x"});
  table.cell(1.23456, 2).end_row();
  EXPECT_NE(table.to_string().find("1.23"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  AsciiChart::Options options;
  options.width = 32;
  options.height = 8;
  options.log_y = true;
  AsciiChart chart(options);
  chart.add_series("decay", '*', {0, 1, 2, 3}, {1.0, 0.1, 0.01, 0.001});
  std::ostringstream os;
  chart.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find("decay"), std::string::npos);
}

TEST(AsciiChart, EmptyChartDoesNotCrash) {
  AsciiChart chart;
  std::ostringstream os;
  chart.print(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

// ------------------------------------------------------------ read_file ----

TEST(ReadFile, ReturnsTheBytesOrNulloptForAMissingPathOrADirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "ggread_file";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string bytes("line\n\0binary\xff tail", 18);
  std::ofstream(dir / "file.bin", std::ios::binary) << bytes;
  EXPECT_EQ(read_file((dir / "file.bin").string()), bytes);
  EXPECT_EQ(read_file((dir / "missing").string()), std::nullopt);
  // A directory opens like a file; its first read throws inside libstdc++.
  EXPECT_EQ(read_file(dir.string()), std::nullopt);
}

}  // namespace
}  // namespace geogossip
