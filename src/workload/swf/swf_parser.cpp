#include "workload/swf/swf_parser.hpp"

#include <array>
#include <charconv>
#include <cmath>

#include "common/assert.hpp"
#include "common/string_util.hpp"

namespace dbs::wl::swf {

namespace {

constexpr std::size_t kFields = 18;

/// Splits `line` on blanks and tabs into exactly kFields tokens (views into
/// `line`); false for any other count.
bool split_fields(std::string_view line,
                  std::array<std::string_view, kFields>& fields) {
  const auto is_sep = [](char c) { return c == ' ' || c == '\t'; };
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_sep(line[i])) ++i;
    std::size_t j = i;
    while (j < line.size() && !is_sep(line[j])) ++j;
    if (j > i) {
      if (n == kFields) return false;
      fields[n++] = line.substr(i, j - i);
    }
    i = j;
  }
  return n == kFields;
}

/// SWF fields are integers in practice, but the definition permits
/// fractional values (average CPU time, fractional seconds); accept both
/// and truncate toward the integer model the simulator uses.
bool parse_field(std::string_view token, std::int64_t& out) {
  // Integers, the -1 sentinel included, parse in place. A negative value
  // beyond 2^53 is left to the double path, which rounds it, so every
  // parsed value stays what that path has always produced.
  constexpr std::int64_t kExactInDouble = std::int64_t{1} << 53;
  const std::string_view t = trim(token);
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (!t.empty() && ec == std::errc{} && ptr == t.data() + t.size() &&
      v >= -kExactInDouble) {
    out = v;
    return true;
  }
  if (const auto d = parse_double(token)) {
    out = static_cast<std::int64_t>(std::llround(*d));
    return true;
  }
  return false;
}

}  // namespace

bool SwfParser::read_line() {
  if (line_pending_) {
    line_pending_ = false;
    return true;
  }
  if (!std::getline(*in_, line_)) return false;
  ++lines_;
  // CRLF tolerance: archive files circulate with DOS line endings.
  if (!line_.empty() && line_.back() == '\r') line_.pop_back();
  return true;
}

void SwfParser::parse_directive() {
  // "; Key: Value" — keep every directive verbatim, decode the few the
  // replay engine acts on.
  std::string_view body = trim(std::string_view(line_).substr(1));
  std::string key;
  std::string value;
  if (const auto kv = split_once(body, ':')) {
    key = std::string(trim(kv->first));
    value = std::string(trim(kv->second));
  } else {
    key = std::string(body);
  }
  if (key.empty()) return;
  header_.directives.emplace_back(key, value);
  const auto numeric = parse_int(value);
  if (!numeric.has_value()) return;
  if (iequals(key, "MaxJobs")) header_.max_jobs = *numeric;
  if (iequals(key, "MaxProcs")) header_.max_procs = *numeric;
  if (iequals(key, "MaxNodes")) header_.max_nodes = *numeric;
}

bool SwfParser::parse_record(SwfRecord& out) {
  std::array<std::string_view, kFields> fields;
  if (!split_fields(line_, fields)) return false;
  std::array<std::int64_t, kFields> v{};
  for (std::size_t i = 0; i < kFields; ++i)
    if (!parse_field(fields[i], v[i])) return false;
  out.job_number = v[0];
  out.submit_s = v[1];
  out.wait_s = v[2];
  out.run_s = v[3];
  out.used_procs = v[4];
  out.avg_cpu_s = v[5];
  out.used_mem_kb = v[6];
  out.req_procs = v[7];
  out.req_time_s = v[8];
  out.req_mem_kb = v[9];
  out.status = v[10];
  out.user = v[11];
  out.group = v[12];
  out.executable = v[13];
  out.queue = v[14];
  out.partition = v[15];
  out.preceding_job = v[16];
  out.think_time_s = v[17];
  return true;
}

const SwfHeader& SwfParser::read_header() {
  while (!line_pending_ && read_line()) {
    const std::string_view t = trim(line_);
    if (t.empty()) continue;
    if (t.front() == ';') {
      parse_directive();
      continue;
    }
    // First record line: stash it for the next next() call.
    line_pending_ = true;
  }
  return header_;
}

bool SwfParser::next(SwfRecord& out) {
  while (read_line()) {
    const std::string_view t = trim(line_);
    if (t.empty()) continue;
    if (t.front() == ';') {
      parse_directive();
      continue;
    }
    if (parse_record(out)) {
      ++records_;
      return true;
    }
    DBS_REQUIRE(policy_ != MalformedPolicy::Strict,
                "SWF line " + std::to_string(lines_) +
                    ": malformed record: " + line_);
    ++malformed_;
  }
  return false;
}

}  // namespace dbs::wl::swf
