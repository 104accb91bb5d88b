// Outside-in probes shared by the benchmark's workloads: wall clock,
// exact quantiles, peak RSS, the lifecycle observer that counts rms events,
// the timed SubmissionSource decorator, registry lookups that report absent
// instruments as missing, and the result that main() prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "obs/registry.hpp"
#include "rms/server.hpp"
#include "workload/source.hpp"

namespace pb {

class SpanLog;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double ns_to_s(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e9;
}

/// Exact quantile (linear interpolation between order statistics); 0 for
/// an empty sample. Takes a copy: nth_element reorders.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Host-speed probe: a fixed, deterministic kernel of the benchmark's own
/// (hash-table inserts and a sort over ~10 MB, like the replays' allocator
/// and pointer traffic) that never runs the program's code. Its wall time
/// tracks how fast this host runs code at the moment: neighbours on a
/// shared host slow everything, the program and the kernel alike, by up to
/// 50% for seconds to minutes at a time. A timing is rescaled by
/// kReferenceKernelSeconds / (kernel time measured around it), so runs
/// taken in slow and quiet phases read alike (see perfbench/README.md).
class HostSpeed {
 public:
  HostSpeed();
  /// Runs the kernel once; returns its wall seconds.
  double measure();
  /// The scale for a timing taken between two measure() calls.
  [[nodiscard]] static double scale(double kernel_before, double kernel_after);

 private:
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> keys_;
  std::uint64_t sink_ = 0;
};
/// The kernel's wall time on the 4-core reference host in a quiet phase.
/// Only the unit depends on it: every run of every commit is scaled by the
/// same constant.
inline constexpr double kReferenceKernelSeconds = 0.030;

/// One timing's per-repetition samples, as measured and rescaled by the
/// HostSpeed scale taken around each repetition.
struct Timings {
  std::vector<double> raw;
  std::vector<double> scaled;
  std::vector<double> scales;
  void add(double value, double scale) {
    raw.push_back(value);
    scaled.push_back(value * scale);
    scales.push_back(scale);
  }
  /// Pearson correlation between the raw timings and 1/scale (the kernel's
  /// time): near 1 when the host's phases move both alike, the premise of
  /// the rescaling. 0 for fewer than three samples.
  [[nodiscard]] double kernel_correlation() const;
};

/// Report line: `head`, then the raw and rescaled median and range of `t`,
/// the scale's range and the kernel correlation.
[[nodiscard]] std::string timings_note(const std::string& head,
                                       const std::string& what, const Timings& t);

/// VmHWM of this process in MiB.
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap to the OS and resets VmHWM to the current resident
/// size, which it returns (MiB): peak_rss_mb() minus this is the peak
/// memory added by what runs in between. Where the kernel refuses the
/// reset, returns 0 and later readings stay process-wide.
double reset_peak_rss();

/// FNV-1a digest of every WorkloadSummary field, as 16 hex digits.
[[nodiscard]] std::string summary_digest(const dbs::metrics::WorkloadSummary& s);

/// Counts the server's job-lifecycle events. Counts come from here, not
/// from registry names, so renaming or merging registry counters never
/// changes them.
class LifecycleObserver final : public dbs::rms::ServerObserver {
 public:
  std::uint64_t submits = 0;
  std::uint64_t starts = 0;
  std::uint64_t finishes = 0;
  std::uint64_t dyn_requests = 0;
  std::uint64_t dyn_grants = 0;
  std::uint64_t dyn_rejects = 0;
  std::uint64_t dyn_releases = 0;
  /// Cluster allocations (job starts + dynamic grants) and frees (finishes,
  /// dynamic releases, shrinks, requeues, node losses and cancels of
  /// running jobs): every call the server makes into the cluster layer.
  std::uint64_t placements = 0;
  std::uint64_t releases = 0;

  void on_submit(const dbs::rms::Job&) override;
  void on_job_start(const dbs::rms::Job&) override;
  void on_job_finish(const dbs::rms::Job&) override;
  void on_dyn_request(const dbs::rms::Job&, const dbs::rms::DynRequest&) override;
  void on_dyn_grant(const dbs::rms::Job&, const dbs::rms::DynRequest&,
                    dbs::CoreCount) override;
  void on_dyn_reject(const dbs::rms::Job&, const dbs::rms::DynRequest&) override;
  void on_dyn_release(const dbs::rms::Job&, dbs::CoreCount) override;
  void on_malleable_shrink(const dbs::rms::Job&, dbs::CoreCount) override;
  void on_requeue(const dbs::rms::Job&) override;
  void on_nodes_lost(const dbs::rms::Job&, dbs::CoreCount) override;
  void on_cancel(const dbs::rms::Job&, dbs::CoreCount released) override;
};

/// SubmissionSource decorator: counts next() calls and, with a span log,
/// records a "next" span per call.
class TimedSource final : public dbs::wl::SubmissionSource {
 public:
  TimedSource(dbs::wl::SubmissionSource& inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  bool next(dbs::wl::SubmitSpec& out) override;
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  dbs::wl::SubmissionSource& inner_;
  SpanLog* spans_;
  std::uint64_t calls_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The JSON value of a metric whose registry instrument is absent: never a
/// value any metric can take, and never 0.
inline constexpr double kMissing = -1.0;

/// One benchmark run's outcome: the JSON line plus the human report.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The JSON metrics: every metric of the run's set in BENCHMARK.json, on
  /// every workload. A count of something that never happens on a workload
  /// (dynamic requests on the shallow replay, svc ticks on a replay) is 0.
  std::vector<Metric> metrics;
  /// Figures printed in the report but kept out of the JSON: the service's
  /// latencies, which are times only the service workload has.
  std::vector<Metric> report_only;
  /// Registry instruments that were expected but absent. Their metrics
  /// carry kMissing in the JSON.
  std::vector<std::string> missing;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Adds `name` when `value` is present, else records it as missing.
  void add_or_missing(std::string name, std::optional<double> value,
                      std::string unit, const std::string& instrument);
};

/// Registry reads that distinguish "absent" from zero.
[[nodiscard]] std::optional<double> counter_value(const dbs::obs::Registry& r,
                                                  const std::string& name);
[[nodiscard]] std::optional<double> histogram_sum(const dbs::obs::Registry& r,
                                                  const std::string& name);
[[nodiscard]] std::optional<double> histogram_mean(const dbs::obs::Registry& r,
                                                   const std::string& name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for state dirs and trace output.
  std::string work_dir = ".bench_run";
};

}  // namespace pb
