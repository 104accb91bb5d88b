// Command lines of the dbs tools. A tool declares each flag once — its
// name, the value it takes and a line of help — and that table both parses
// argv and prints the usage. Every bad command line has one shape: a line
// naming the flag (or argument) at fault, then the usage, exit 2. A tool's
// own checks across flags report through fail() the same way. `--help`
// and `-h` print the usage to stdout and exit 0. Each declaration keeps a
// reference to its output, which must outlive parse().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/string_util.hpp"

namespace dbs::tools {

class Flags {
 public:
  /// `program` heads the usage and every error line; `about`, when given,
  /// is printed between the usage line and the flag list.
  explicit Flags(std::string program, std::string about = {})
      : program_(std::move(program)), about_(std::move(about)) {}

  /// A required positional argument, filled in declaration order.
  void operand(std::string name, std::string& out) {
    operands_.push_back({std::move(name), &out});
  }

  /// A switch: `out` becomes true when the flag is given.
  void flag(std::string name, bool& out, std::string help) {
    flags_.push_back({std::move(name), {}, std::move(help), {},
                      [&out](std::string_view) {
                        out = true;
                        return true;
                      }});
  }

  /// Any text, such as a path.
  void text(std::string name, std::string& out, std::string metavar,
            std::string help) {
    flags_.push_back({std::move(name), std::move(metavar), std::move(help),
                      {}, [&out](std::string_view arg) {
                        out = arg;
                        return true;
                      }});
  }

  /// An integer in [min, max] into `out`, an integral type or a
  /// std::optional of one; `max` defaults to the most that type holds.
  template <class Out>
  void integer(std::string name, Out& out, std::int64_t min,
               std::string metavar, std::string help,
               std::int64_t max = largest<value_t<Out>>()) {
    using T = value_t<Out>;
    static_assert(std::is_integral_v<T>);
    std::string expects =
        max == largest<std::int64_t>()
            ? "an integer >= " + std::to_string(min)
            : "an integer in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]";
    flags_.push_back({std::move(name), std::move(metavar), std::move(help),
                      std::move(expects),
                      [&out, min, max](std::string_view arg) {
                        const std::optional<std::int64_t> v = parse_int(arg);
                        if (!v || *v < min || *v > max) return false;
                        out = static_cast<T>(*v);
                        return true;
                      }});
  }

  /// A number in [min, max] into `out`, a double or a std::optional of
  /// one. NaN is in no range.
  template <class Out>
  void number(std::string name, Out& out, double min, double max,
              std::string metavar, std::string help) {
    static_assert(std::is_same_v<value_t<Out>, double>);
    std::ostringstream expects;
    expects << "a number in [" << min << ", " << max << "]";
    flags_.push_back({std::move(name), std::move(metavar), std::move(help),
                      expects.str(), [&out, min, max](std::string_view arg) {
                        const std::optional<double> v = parse_double(arg);
                        if (!v || !(*v >= min && *v <= max)) return false;
                        out = *v;
                        return true;
                      }});
  }

  /// One of `words`, each naming the value `out` takes; several words may
  /// name one value.
  template <class T>
  void choice(std::string name, T& out,
              std::initializer_list<std::pair<std::string_view, T>> words,
              std::string help) {
    add_choice(std::move(name), out,
               std::vector<std::pair<std::string, T>>(words.begin(),
                                                      words.end()),
               std::move(help));
  }

  /// One of `words`, taken as the text itself.
  void choice(std::string name, std::string& out,
              std::initializer_list<std::string_view> words,
              std::string help) {
    std::vector<std::pair<std::string, std::string>> table;
    for (const std::string_view word : words) table.emplace_back(word, word);
    add_choice(std::move(name), out, std::move(table), std::move(help));
  }

  /// Parses argv[1..argc). Returns the exit code when the tool must stop
  /// here — 0 after --help, 2 after a bad line (both already printed) —
  /// and nullopt when it should run.
  std::optional<int> parse(int argc, const char* const* argv,
                           std::ostream& out = std::cout,
                           std::ostream& err = std::cerr) {
    std::size_t filled = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(out);
        return 0;
      }
      if (!arg.starts_with('-')) {
        if (filled == operands_.size())
          return fail("unexpected argument '" + arg + "'", err);
        *operands_[filled++].out = arg;
        continue;
      }
      const auto it =
          std::find_if(flags_.begin(), flags_.end(),
                       [&arg](const Flag& f) { return f.name == arg; });
      if (it == flags_.end()) return fail("unknown flag '" + arg + "'", err);
      if (it->metavar.empty()) {
        it->set({});
        continue;
      }
      if (i + 1 == argc) return fail(arg + " needs a value", err);
      const std::string value = argv[++i];
      if (!it->set(value))
        return fail(arg + " expects " + it->expects + ", got '" + value + "'",
                    err);
    }
    if (filled < operands_.size())
      return fail("missing " + operands_[filled].name, err);
    return std::nullopt;
  }

  /// Reports `message` and the usage; returns the exit code 2.
  int fail(std::string_view message, std::ostream& err = std::cerr) const {
    err << program_ << ": " << message << "\n";
    usage(err);
    return 2;
  }

 private:
  struct Flag {
    std::string name;
    std::string metavar;  ///< empty for a switch
    std::string help;
    std::string expects;  ///< "an integer >= 1", "one of a, b", ...
    std::function<bool(std::string_view)> set;  ///< false: value rejected
  };
  struct Operand {
    std::string name;
    std::string* out;
  };

  void usage(std::ostream& os) const {
    os << "usage: " << program_;
    for (const Operand& o : operands_) os << " " << o.name;
    os << " [options]\n";
    if (!about_.empty()) os << about_ << "\n";
    os << "options:\n";
    for (const Flag& f : flags_)
      os << "  " << f.name << (f.metavar.empty() ? "" : " ") << f.metavar
         << "\n      " << f.help << "\n";
    os << "  -h, --help\n      print this usage\n";
  }

  template <class T>
  struct Value {
    using type = T;
  };
  template <class T>
  struct Value<std::optional<T>> {
    using type = T;
  };
  template <class Out>
  using value_t = typename Value<Out>::type;

  /// The most a T holds, capped at what parse_int yields.
  template <class T>
  static constexpr std::int64_t largest() {
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    return static_cast<std::uint64_t>(std::numeric_limits<T>::max()) >
                   static_cast<std::uint64_t>(kMax)
               ? kMax
               : static_cast<std::int64_t>(std::numeric_limits<T>::max());
  }

  template <class T>
  void add_choice(std::string name, T& out,
                  std::vector<std::pair<std::string, T>> table,
                  std::string help) {
    std::string metavar;
    std::string listed;
    for (const auto& [word, value] : table) {
      metavar += (metavar.empty() ? "" : "|") + word;
      listed += (listed.empty() ? "" : ", ") + word;
    }
    flags_.push_back(
        {std::move(name), std::move(metavar), std::move(help),
         "one of " + listed,
         [&out, table = std::move(table)](std::string_view arg) {
           for (const auto& [word, value] : table)
             if (word == arg) {
               out = value;
               return true;
             }
           return false;
         }});
  }

  std::string program_;
  std::string about_;
  std::vector<Operand> operands_;
  std::vector<Flag> flags_;
};

}  // namespace dbs::tools
