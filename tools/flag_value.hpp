// Numeric flag values for the dbs tools. A malformed, negative or
// out-of-range value is a usage error: these helpers print the flag, what
// it expects and the text given; the tool then prints its usage and exits 2.
#pragma once

#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>

#include "common/string_util.hpp"

namespace dbs::tools {

inline constexpr std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();

/// `text`, given to `flag`, as an integer in [min, max].
inline std::optional<std::int64_t> int_flag(std::string_view flag,
                                            std::string_view text,
                                            std::int64_t min,
                                            std::int64_t max = kNoMax) {
  const std::optional<std::int64_t> v = parse_int(text);
  if (v && *v >= min && *v <= max) return v;
  std::cerr << flag << " expects an integer >= " << min;
  if (max != kNoMax) std::cerr << " and <= " << max;
  std::cerr << ", got '" << text << "'\n";
  return std::nullopt;
}

/// `text`, given to `flag`, as a number in [min, max] (never NaN).
inline std::optional<double> double_flag(std::string_view flag,
                                         std::string_view text, double min,
                                         double max) {
  const std::optional<double> v = parse_double(text);
  if (v && *v >= min && *v <= max) return v;
  std::cerr << flag << " expects a number in [" << min << ", " << max
            << "], got '" << text << "'\n";
  return std::nullopt;
}

}  // namespace dbs::tools
