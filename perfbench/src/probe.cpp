#include "probe.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "spans.hpp"

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (hi == lo) return a;
  const double b =
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

namespace {

/// A "<field>: N kB" line of /proc/self/status in MiB, or -1.
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  const std::size_t len = std::strlen(field);
  double mb = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::strncmp(line, field, len) == 0 && line[len] == ':' &&
        std::sscanf(line + len + 1, "%ld", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

}  // namespace

double peak_rss_mb() {
  const double mb = status_mb("VmHWM");
  if (mb >= 0.0) return mb;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

HostSpeed::HostSpeed() : table_(std::size_t{1} << 20), keys_(std::size_t{1} << 18) {}

double HostSpeed::measure() {
  const std::uint64_t begin = now_ns();
  std::fill(table_.begin(), table_.end(), 0);
  const std::size_t mask = table_.size() - 1;
  std::uint64_t x = 88172645463325252ULL;
  for (std::size_t i = 0; i < 600000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::size_t h = static_cast<std::size_t>((x * 0x9E3779B97F4A7C15ULL) >> 44) & mask;
    while (table_[h] != 0 && table_[h] != x) h = (h + 1) & mask;
    table_[h] = x;
    keys_[i & (keys_.size() - 1)] = x;
  }
  std::sort(keys_.begin(), keys_.end());
  sink_ += keys_[keys_.size() / 2] + table_[x & mask];
  return ns_to_s(now_ns() - begin);
}

double HostSpeed::scale(double kernel_before, double kernel_after) {
  return kReferenceKernelSeconds / ((kernel_before + kernel_after) / 2.0);
}

double Timings::kernel_correlation() const {
  const std::size_t n = raw.size();
  if (n < 3) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += raw[i];
    my += 1.0 / scales[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = raw[i] - mx;
    const double dy = 1.0 / scales[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  return sxx == 0.0 || syy == 0.0 ? 0.0 : sxy / std::sqrt(sxx * syy);
}

std::string timings_note(const std::string& head, const std::string& what,
                         const Timings& t) {
  const auto range = [](const std::vector<double>& v) {
    return std::make_pair(*std::min_element(v.begin(), v.end()),
                          *std::max_element(v.begin(), v.end()));
  };
  const auto [raw_lo, raw_hi] = range(t.raw);
  const auto [scaled_lo, scaled_hi] = range(t.scaled);
  const auto [scale_lo, scale_hi] = range(t.scales);
  char line[320];
  std::snprintf(line, sizeof(line),
                "%s%s%s: raw median %.6g (%.6g-%.6g); rescaled median %.6g "
                "(%.6g-%.6g); host scale median %.3f (%.3f-%.3f); raw vs "
                "kernel time r = %.2f",
                head.c_str(), head.empty() ? "" : "\n", what.c_str(),
                median(t.raw), raw_lo, raw_hi, median(t.scaled), scaled_lo,
                scaled_hi, median(t.scales), scale_lo, scale_hi,
                t.kernel_correlation());
  return line;
}

double reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return 0.0;
  const bool reset = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !reset) return 0.0;
  return std::max(0.0, status_mb("VmRSS"));
}

std::string summary_digest(const dbs::metrics::WorkloadSummary& s) {
  char text[512];
  std::snprintf(text, sizeof(text),
                "%zu|%zu|%zu|%zu|%zu|%zu|%lld|%.17g|%.17g|%lld|%lld|%lld",
                s.jobs_submitted, s.jobs_completed, s.evolving_jobs,
                s.satisfied_dyn_jobs, s.granted_dyn_requests, s.backfilled_jobs,
                static_cast<long long>(s.makespan.as_micros()), s.utilization,
                s.throughput_jobs_per_min,
                static_cast<long long>(s.avg_wait.as_micros()),
                static_cast<long long>(s.max_wait.as_micros()),
                static_cast<long long>(s.avg_turnaround.as_micros()));
  std::uint64_t h = 14695981039346656037ULL;
  for (const char* p = text; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

void LifecycleObserver::on_submit(const dbs::rms::Job&) { ++submits; }
void LifecycleObserver::on_job_start(const dbs::rms::Job&) {
  ++starts;
  ++placements;
}
void LifecycleObserver::on_job_finish(const dbs::rms::Job&) {
  ++finishes;
  ++releases;
}
void LifecycleObserver::on_dyn_request(const dbs::rms::Job&,
                                       const dbs::rms::DynRequest&) {
  ++dyn_requests;
}
void LifecycleObserver::on_dyn_grant(const dbs::rms::Job&,
                                     const dbs::rms::DynRequest&, dbs::CoreCount) {
  ++dyn_grants;
  ++placements;
}
void LifecycleObserver::on_dyn_reject(const dbs::rms::Job&,
                                      const dbs::rms::DynRequest&) {
  ++dyn_rejects;
}
void LifecycleObserver::on_dyn_release(const dbs::rms::Job&, dbs::CoreCount) {
  ++dyn_releases;
  ++releases;
}
void LifecycleObserver::on_malleable_shrink(const dbs::rms::Job&,
                                            dbs::CoreCount) {
  ++releases;
}
void LifecycleObserver::on_requeue(const dbs::rms::Job&) { ++releases; }
void LifecycleObserver::on_nodes_lost(const dbs::rms::Job&, dbs::CoreCount) {
  ++releases;
}
void LifecycleObserver::on_cancel(const dbs::rms::Job&, dbs::CoreCount released) {
  if (released > 0) ++releases;
}

bool TimedSource::next(dbs::wl::SubmitSpec& out) {
  bool ok = false;
  {
    const ScopedSpan span(spans_, Kind::Next, static_cast<std::uint32_t>(calls_));
    ok = inner_.next(out);
  }
  ++calls_;
  return ok;
}

void Result::add_or_missing(std::string name, std::optional<double> value,
                            std::string unit, const std::string& instrument) {
  if (!value) missing.push_back(name + " (registry instrument '" + instrument + "')");
  add(std::move(name), value.value_or(kMissing), std::move(unit));
}

std::optional<double> counter_value(const dbs::obs::Registry& r,
                                    const std::string& name) {
  const dbs::obs::Counter* c = r.find_counter(name);
  if (c == nullptr) return std::nullopt;
  return static_cast<double>(c->value());
}

std::optional<double> histogram_sum(const dbs::obs::Registry& r,
                                    const std::string& name) {
  const dbs::obs::Histogram* h = r.find_histogram(name);
  if (h == nullptr) return std::nullopt;
  return h->sum();
}

std::optional<double> histogram_mean(const dbs::obs::Registry& r,
                                     const std::string& name) {
  const dbs::obs::Histogram* h = r.find_histogram(name);
  if (h == nullptr) return std::nullopt;
  return h->count() == 0 ? 0.0 : h->sum() / static_cast<double>(h->count());
}

}  // namespace pb
