#include "workload/trace.hpp"

#include <ostream>
#include <sstream>

#include "common/assert.hpp"
#include "common/string_util.hpp"
#include "common/value.hpp"

namespace dbs::wl {

namespace {
std::string flags_of(const SubmitSpec& s) {
  std::string f;
  if (s.behavior.evolving) f += 'E';
  if (s.spec.exclusive_priority) f += 'X';
  if (s.spec.preemptible) f += 'P';
  return f.empty() ? "-" : f;
}

std::string field_or_dash(const std::string& s) { return s.empty() ? "-" : s; }

constexpr value::Integer<std::int64_t> kMicros{};
constexpr value::Integer<CoreCount> kCores{};
constexpr value::Number kFraction{0, 1};
}  // namespace

void write_trace(std::ostream& os, const Workload& workload) {
  os << "# dbs workload trace v1\n";
  os << "# total_cores " << workload.total_cores << "\n";
  for (const SubmitSpec& s : workload.jobs) {
    os << s.at.as_micros() << ' ' << s.spec.name << ' ' << s.spec.cred.user
       << ' ' << field_or_dash(s.spec.cred.group) << ' '
       << field_or_dash(s.spec.cred.job_class) << ' '
       << s.spec.cores << ' ' << s.spec.walltime.as_micros() << ' '
       << flags_of(s) << ' ' << s.behavior.static_runtime.as_micros() << ' '
       << s.behavior.first_ask_frac << ' ' << s.behavior.retry_frac << ' '
       << s.behavior.ask_cores << ' '
       << s.behavior.negotiation_timeout.as_micros() << ' '
       << s.spec.malleable_min << '\n';
  }
}

std::string trace_to_string(const Workload& workload) {
  std::ostringstream os;
  write_trace(os, workload);
  return os.str();
}

Workload read_trace(std::istream& is) {
  Workload wl;
  std::string line;
  int line_no = 0;
  // A field of the current line, read into its own type and range.
  const auto read = [&line_no](const auto& kind, const std::string& token,
                               std::string_view name) {
    const auto v = kind.parse(token);
    if (!v)
      throw precondition_error("trace line " + std::to_string(line_no) + ": " +
                               value::rejected(name, kind.expects(), token));
    return *v;
  };
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      const auto fields = split(trimmed.substr(1));
      if (fields.size() == 2 && fields[0] == "total_cores")
        wl.total_cores = read(kCores, fields[1], "total_cores");
      continue;
    }
    const auto f = split(trimmed);
    DBS_REQUIRE(f.size() == 13 || f.size() == 14,
                "trace line " + std::to_string(line_no) +
                    ": expected 13-14 fields, got " + std::to_string(f.size()));
    SubmitSpec s;
    s.at = Time::from_micros(read(kMicros, f[0], "at_us"));
    s.spec.name = f[1];
    s.spec.cred.user = f[2];
    s.spec.cred.group = f[3] == "-" ? "" : f[3];
    s.spec.cred.job_class = f[4] == "-" ? "" : f[4];
    s.spec.cores = read(value::Integer<CoreCount>{1}, f[5], "cores");
    s.spec.walltime = Duration::micros(read(kMicros, f[6], "walltime_us"));
    for (const char c : f[7]) {
      if (c == 'E') s.behavior.evolving = true;
      if (c == 'X') s.spec.exclusive_priority = true;
      if (c == 'P') s.spec.preemptible = true;
    }
    s.spec.type_tag = s.spec.name.substr(0, s.spec.name.find('-'));
    s.behavior.static_runtime =
        Duration::micros(read(kMicros, f[8], "runtime_us"));
    s.behavior.first_ask_frac = read(kFraction, f[9], "ask_frac");
    s.behavior.retry_frac = read(kFraction, f[10], "retry_frac");
    s.behavior.ask_cores = read(kCores, f[11], "ask_cores");
    s.behavior.negotiation_timeout =
        Duration::micros(read(kMicros, f[12], "nego_timeout_us"));
    if (f.size() == 14) {
      s.spec.malleable_min = read(kCores, f[13], "malleable_min");
      s.behavior.malleable = s.spec.malleable_min > 0 && !s.behavior.evolving;
    }
    wl.jobs.push_back(std::move(s));
  }
  return wl;
}

Workload trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

}  // namespace dbs::wl
