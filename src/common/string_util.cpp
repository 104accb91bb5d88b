#include "common/string_util.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>

namespace dbs {

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, std::string_view seps) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && seps.find(s[i]) != std::string_view::npos) ++i;
    std::size_t j = i;
    while (j < s.size() && seps.find(s[j]) == std::string_view::npos) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::optional<std::pair<std::string, std::string>> split_once(
    std::string_view s, char sep) {
  const auto pos = s.find(sep);
  if (pos == std::string_view::npos) return std::nullopt;
  return std::make_pair(std::string(s.substr(0, pos)),
                        std::string(s.substr(pos + 1)));
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::optional<Duration> parse_duration(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // Reject empty components ("12:", ":30", "1::2") before splitting, since
  // split() silently drops them.
  if (s.front() == ':' || s.back() == ':' ||
      s.find("::") != std::string_view::npos)
    return std::nullopt;
  const auto fields = split(s, ":");
  if (fields.empty() || fields.size() > 3) return std::nullopt;
  // Each colon-separated field must be a plain non-negative integer, and
  // the total must fit a Duration's microseconds.
  constexpr std::int64_t kMaxSeconds =
      std::numeric_limits<std::int64_t>::max() / 1'000'000;
  std::int64_t total = 0;
  for (const auto& f : fields) {
    const auto v = parse_int(f);
    if (!v || *v > kMaxSeconds || total > (kMaxSeconds - *v) / 60)
      return std::nullopt;
    total = total * 60 + *v;
  }
  return Duration::seconds(total);
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || value < 0)
    return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is unreliable across libstdc++ versions in
  // some environments; strtod on a NUL-terminated copy is portable.
  const std::string copy(s);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return v;
}

}  // namespace dbs
