// Typed values read from text: the one layer under the tools' command lines
// (tools/flags.hpp), the Maui config (src/config) and the workload trace
// reader (src/workload). A kind parses one token into its type and range
// and says what it expects, so every rejected token reads
// "<name> expects <what>, got '<token>'" (rejected()). bind() ties a kind
// to the field it sets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/string_util.hpp"
#include "common/time.hpp"

namespace dbs::value {

/// The type a field holds: T, or the T of a std::optional<T>.
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
constexpr std::int64_t largest() {
  return static_cast<std::int64_t>(std::min<std::uint64_t>(
      std::numeric_limits<T>::max(), std::numeric_limits<std::int64_t>::max()));
}

/// An integer in [min, max], parsed into T; `max` is at most largest<T>().
template <class T>
struct Integer {
  using type = T;
  std::int64_t min = 0;
  std::int64_t max = largest<T>();

  [[nodiscard]] std::optional<T> parse(std::string_view s) const {
    const std::optional<std::int64_t> v = parse_int(s);
    if (!v || *v < min || *v > max || *v > largest<T>()) return std::nullopt;
    return static_cast<T>(*v);
  }
  [[nodiscard]] std::string expects() const {
    return max == largest<std::int64_t>()
               ? "an integer >= " + std::to_string(min)
               : "an integer in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]";
  }
  [[nodiscard]] std::string show(T v) const { return std::to_string(v); }
};

/// A number in [min, max]. NaN is in no range; finite() is every finite
/// double.
struct Number {
  using type = double;
  double min = 0;
  double max = 0;

  [[nodiscard]] static constexpr Number finite() {
    return {std::numeric_limits<double>::lowest(),
            std::numeric_limits<double>::max()};
  }
  [[nodiscard]] std::optional<double> parse(std::string_view s) const {
    const std::optional<double> v = parse_double(s);
    if (!v || !(*v >= min && *v <= max)) return std::nullopt;
    return v;
  }
  [[nodiscard]] std::string expects() const {
    if (min == finite().min && max == finite().max) return "a finite number";
    return "a number in [" + show(min) + ", " + show(max) + "]";
  }
  [[nodiscard]] std::string show(double v) const {
    std::ostringstream os;
    os << v;
    return os.str();
  }
};

/// A duration of seconds or [HH:]MM:SS in [min, max].
struct Span {
  using type = Duration;
  Duration min;
  Duration max;

  [[nodiscard]] std::optional<Duration> parse(std::string_view s) const {
    const std::optional<Duration> d = parse_duration(s);
    if (!d || *d < min || *d > max) return std::nullopt;
    return d;
  }
  [[nodiscard]] std::string expects() const {
    return "a duration in [" + min.to_hms() + ", " + max.to_hms() + "]";
  }
  [[nodiscard]] std::string show(Duration d) const { return d.to_hms(); }
};

/// One of `words`, each naming a value; several may name one, and the
/// first names it in show(). `any_case` ignores ASCII case.
template <class T>
struct Words {
  using type = T;
  std::vector<std::pair<std::string, T>> words;
  bool any_case = false;

  [[nodiscard]] std::optional<T> parse(std::string_view s) const {
    for (const auto& [word, v] : words)
      if (any_case ? iequals(word, s) : word == s) return v;
    return std::nullopt;
  }
  [[nodiscard]] std::string expects() const {
    std::string listed;
    for (const auto& [word, v] : words)
      listed += (listed.empty() ? "" : ", ") + word;
    return "one of " + listed;
  }
  [[nodiscard]] std::string show(const T& value) const {
    for (const auto& [word, v] : words)
      if (v == value) return word;
    return {};
  }
};

/// A kind bound to the field it sets, which must outlive the slot. set()
/// parses a token into the field and returns false, leaving the field as
/// it was, when the token is not of the kind; show() writes the field as a
/// token set() takes.
struct Slot {
  std::string expects;
  std::function<bool(std::string_view)> set;
  std::function<std::string()> show;
};

template <class Kind, class Out>
[[nodiscard]] Slot bind(Kind kind, Out& out) {
  static_assert(std::is_same_v<typename Kind::type, value_t<Out>>,
                "a kind parses into its field's own type");
  std::string expects = kind.expects();
  return {std::move(expects),
          [kind, &out](std::string_view s) {
            auto v = kind.parse(s);
            if (v) out = std::move(*v);
            return v.has_value();
          },
          [kind, &out] {
            if constexpr (std::is_same_v<Out, value_t<Out>>)
              return kind.show(out);
            else
              return out ? kind.show(*out) : std::string();
          }};
}

/// The one message for a token that is not of its kind.
[[nodiscard]] inline std::string rejected(std::string_view name,
                                          std::string_view expects,
                                          std::string_view token) {
  return std::string(name) + " expects " + std::string(expects) + ", got '" +
         std::string(token) + "'";
}

}  // namespace dbs::value
