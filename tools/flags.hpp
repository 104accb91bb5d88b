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
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/value.hpp"

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
    const auto set = [&out](std::string_view) { return out = true; };
    flags_.push_back({std::move(name), {}, std::move(help), {{}, set, {}}});
  }

  /// Any text, such as a path.
  void text(std::string name, std::string& out, std::string metavar,
            std::string help) {
    const auto set = [&out](std::string_view arg) {
      out = arg;
      return true;
    };
    flags_.push_back(
        {std::move(name), std::move(metavar), std::move(help), {{}, set, {}}});
  }

  /// An integer in [min, max] into `out`, an integral type or a
  /// std::optional of one; `max` defaults to the most that type holds.
  template <class Out>
  void integer(std::string name, Out& out, std::int64_t min,
               std::string metavar, std::string help,
               std::int64_t max = value::largest<value::value_t<Out>>()) {
    flags_.push_back(
        {std::move(name), std::move(metavar), std::move(help),
         value::bind(value::Integer<value::value_t<Out>>{min, max}, out)});
  }

  /// A number in [min, max] into `out`, a double or a std::optional of
  /// one. NaN is in no range.
  template <class Out>
  void number(std::string name, Out& out, double min, double max,
              std::string metavar, std::string help) {
    flags_.push_back({std::move(name), std::move(metavar), std::move(help),
                      value::bind(value::Number{min, max}, out)});
  }

  /// One of `words`, each naming the value `out` takes; several words may
  /// name one value.
  template <class T>
  void choice(std::string name, T& out,
              std::initializer_list<std::pair<std::string_view, T>> words,
              std::string help) {
    add_choice(std::move(name), out,
               value::Words<T>{{words.begin(), words.end()}},
               std::move(help));
  }

  /// One of `words`, taken as the text itself.
  void choice(std::string name, std::string& out,
              std::initializer_list<std::string_view> words,
              std::string help) {
    value::Words<std::string> table;
    for (const std::string_view word : words)
      table.words.emplace_back(word, word);
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
        it->slot.set({});
        continue;
      }
      if (i + 1 == argc) return fail(arg + " needs a value", err);
      const std::string token = argv[++i];
      if (!it->slot.set(token))
        return fail(value::rejected(arg, it->slot.expects, token), err);
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
    value::Slot slot;  ///< its expects: "an integer >= 1", "one of a, b", ...
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
  void add_choice(std::string name, T& out, value::Words<T> words,
                  std::string help) {
    std::string metavar;
    for (const auto& [word, v] : words.words)
      metavar += (metavar.empty() ? "" : "|") + word;
    flags_.push_back({std::move(name), std::move(metavar), std::move(help),
                      value::bind(std::move(words), out)});
  }

  std::string program_;
  std::string about_;
  std::vector<Operand> operands_;
  std::vector<Flag> flags_;
};

}  // namespace dbs::tools
