// Small string helpers used by the config parser, trace I/O and reporting.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace dbs {

/// Strips leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on any character in `seps`, dropping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s,
                                             std::string_view seps = " \t");

/// Splits on the first occurrence of `sep`; nullopt if absent.
[[nodiscard]] std::optional<std::pair<std::string, std::string>> split_once(
    std::string_view s, char sep);

/// Case-insensitive comparison (ASCII).
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

/// Uppercases ASCII.
[[nodiscard]] std::string to_upper(std::string_view s);

/// Parses "HH:MM:SS", "MM:SS" or plain seconds into a Duration.
/// Returns nullopt for malformed input and for more than a Duration holds.
[[nodiscard]] std::optional<Duration> parse_duration(std::string_view s);

/// Parses a non-negative integer; nullopt on malformed input or overflow.
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view s);

/// Parses a double; nullopt on malformed input.
[[nodiscard]] std::optional<double> parse_double(std::string_view s);

}  // namespace dbs
