// The tools' one command-line parser: every value kind parses into its
// output, every bad line exits 2 with a line naming the flag and the usage,
// and --help lists every declared flag and exits 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "flags.hpp"

namespace dbs::tools {
namespace {

enum class Color { Red, Green };

/// One command line parsed through a table with every value kind.
struct Line {
  bool verbose = false;
  std::string path;
  std::string file;
  std::size_t count = 3;
  std::optional<std::uint64_t> id;
  double pct = 0.0;
  std::optional<double> from;
  Color color = Color::Red;
  std::string format = "json";
  std::optional<int> stop;
  std::ostringstream out;
  std::ostringstream err;
  Flags flags{"tool"};

  explicit Line(std::vector<const char*> args) {
    flags.operand("FILE", file);
    flags.flag("--verbose", verbose, "talk more");
    flags.text("--path", path, "P", "a path");
    flags.integer("--count", count, 1, "N", "how many", 10);
    flags.integer("--id", id, 0, "ID", "which one");
    flags.number("--pct", pct, 0, 100, "PCT", "a share");
    flags.number("--from", from, 0, 1e6, "S", "a start");
    flags.choice("--color", color,
                 {{"red", Color::Red},
                  {"crimson", Color::Red},
                  {"green", Color::Green}},
                 "a color");
    flags.choice("--format", format, {"json", "csv"}, "a format");
    args.insert(args.begin(), "tool");
    stop = flags.parse(static_cast<int>(args.size()), args.data(), out, err);
  }
};

TEST(Flags, EveryValueKindParses) {
  Line defaults({"in.dat"});
  EXPECT_EQ(defaults.stop, std::nullopt) << defaults.err.str();
  EXPECT_EQ(defaults.file, "in.dat");
  EXPECT_FALSE(defaults.verbose);
  EXPECT_EQ(defaults.count, 3u);
  EXPECT_EQ(defaults.id, std::nullopt);
  EXPECT_EQ(defaults.from, std::nullopt);

  Line line({"--verbose", "--path", "-", "--count", "10", "--id", "0",
             "--pct", "12.5", "--from", "7", "in.dat", "--color", "green",
             "--format", "csv"});
  EXPECT_EQ(line.stop, std::nullopt) << line.err.str();
  EXPECT_TRUE(line.err.str().empty());
  EXPECT_TRUE(line.verbose);
  EXPECT_EQ(line.path, "-");
  EXPECT_EQ(line.file, "in.dat");
  EXPECT_EQ(line.count, 10u);
  EXPECT_EQ(line.id, std::optional<std::uint64_t>(0));
  EXPECT_EQ(line.pct, 12.5);
  EXPECT_EQ(line.from, std::optional<double>(7.0));
  EXPECT_EQ(line.color, Color::Green);
  EXPECT_EQ(line.format, "csv");

  // A synonym names the same value.
  EXPECT_EQ(Line({"x", "--color", "green", "--color", "crimson"}).color,
            Color::Red);
}

TEST(Flags, BadLineExitsTwoNamingTheFlagThenTheUsage) {
  struct Case {
    std::vector<const char*> args;
    std::string named;
  };
  const std::vector<Case> cases = {
      {{"x", "--count", "0"}, "--count expects an integer in [1, 10], got '0'"},
      {{"x", "--count", "11"}, "--count"},
      {{"x", "--count", "7x"}, "--count"},
      {{"x", "--id", "-1"}, "--id expects an integer >= 0, got '-1'"},
      {{"x", "--pct", "100.5"}, "--pct expects a number in [0, 100]"},
      {{"x", "--pct", "nan"}, "--pct"},
      {{"x", "--from", "soon"}, "--from"},
      {{"x", "--color", "blue"},
       "--color expects one of red, crimson, green, got 'blue'"},
      {{"x", "--format", "xml"}, "--format expects one of json, csv"},
      {{"x", "--path"}, "--path needs a value"},
      {{"x", "--bogus"}, "unknown flag '--bogus'"},
      {{"x", "y"}, "unexpected argument 'y'"},
      {{"--verbose"}, "missing FILE"},
  };
  for (const Case& c : cases) {
    Line line(c.args);
    EXPECT_EQ(line.stop, std::optional<int>(2)) << c.named;
    const std::string err = line.err.str();
    const std::string first = err.substr(0, err.find('\n'));
    EXPECT_EQ(first.rfind("tool: ", 0), 0u) << err;
    EXPECT_NE(first.find(c.named), std::string::npos) << err;
    EXPECT_NE(err.find("\nusage: tool FILE [options]\n"), std::string::npos)
        << err;
    EXPECT_TRUE(line.out.str().empty());
  }

  // A tool's own cross-flag check reports the same way.
  Line line({"x"});
  std::ostringstream err;
  EXPECT_EQ(line.flags.fail("--from needs --pct", err), 2);
  EXPECT_EQ(err.str().rfind("tool: --from needs --pct\nusage: tool FILE", 0),
            0u)
      << err.str();
}

TEST(Flags, HelpExitsZeroAndListsEveryFlag) {
  for (const char* help : {"--help", "-h"}) {
    // Help ends the parse: neither what follows nor the missing FILE is
    // an error.
    Line line({help, "--bogus"});
    EXPECT_EQ(line.stop, std::optional<int>(0));
    EXPECT_TRUE(line.err.str().empty());
    const std::string usage = line.out.str();
    EXPECT_EQ(usage.rfind("usage: tool FILE [options]\n", 0), 0u) << usage;
    for (const char* listed :
         {"--verbose\n", "--path P\n", "--count N\n", "--id ID\n",
          "--pct PCT\n", "--from S\n", "--color red|crimson|green\n",
          "--format json|csv\n", "-h, --help\n"})
      EXPECT_NE(usage.find(listed), std::string::npos) << listed;
  }
}

}  // namespace
}  // namespace dbs::tools
