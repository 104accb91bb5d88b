// Event-driven metrics collection: per-job lifecycle records plus the
// cluster-usage timeline, from which utilization, throughput and waiting
// times are computed.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/time.hpp"
#include "rms/server.hpp"
#include "sim/simulator.hpp"

namespace dbs::metrics {

struct JobRecord {
  [[nodiscard]] bool operator==(const JobRecord&) const = default;

  JobId id;
  std::string name;
  std::string user;
  std::string type_tag;
  CoreCount cores_requested = 0;
  CoreCount cores_peak = 0;
  Time submit;
  std::optional<Time> start;
  std::optional<Time> end;
  bool backfilled = false;
  bool evolving = false;     ///< made at least one dynamic request
  int dyn_requests = 0;
  int dyn_grants = 0;
  int dyn_rejects = 0;
  int requeues = 0;
  int malleable_shrinks = 0;

  [[nodiscard]] bool completed() const { return end.has_value(); }
  [[nodiscard]] Duration wait_time() const;
  [[nodiscard]] Duration turnaround() const;
  /// All dynamic requests granted, and at least one made (Table II's
  /// "satisfied" evolving job). A single final rejection disqualifies the
  /// job even if other requests were granted.
  [[nodiscard]] bool dyn_satisfied() const {
    return dyn_requests > 0 && dyn_rejects == 0;
  }
};

class Recorder final : public rms::ServerObserver {
 public:
  Recorder(sim::Simulator& simulator, const cluster::Cluster& cluster);

  // rms::ServerObserver
  void on_submit(const rms::Job& job) override;
  void on_job_start(const rms::Job& job) override;
  void on_job_finish(const rms::Job& job) override;
  void on_dyn_request(const rms::Job& job, const rms::DynRequest&) override;
  void on_dyn_grant(const rms::Job& job, const rms::DynRequest&,
                    CoreCount extra) override;
  void on_dyn_reject(const rms::Job& job, const rms::DynRequest&) override;
  void on_dyn_release(const rms::Job& job, CoreCount cores) override;
  void on_malleable_shrink(const rms::Job& job, CoreCount cores) override;
  void on_requeue(const rms::Job& job) override;
  void on_nodes_lost(const rms::Job& job, CoreCount lost) override;
  void on_cancel(const rms::Job& job, CoreCount released) override;

  /// Streaming mode: a finished (completed or cancelled) job is folded
  /// into running totals and its record destroyed, so recorder memory
  /// stays O(live jobs) across a million-job replay instead of O(all jobs
  /// ever). The usage timeline
  /// collapses to an incrementally maintained integral that accumulates
  /// exactly the terms used_core_seconds() would fold, so the summary is
  /// identical to the materialized one when the replay drains completely.
  /// Must be enabled before the first submission; records()/record() are
  /// unavailable in this mode.
  void set_streaming(bool on);
  [[nodiscard]] bool streaming() const { return streaming_; }

  /// Running aggregates over finished jobs (streaming mode). A cancelled
  /// job never completes, so it adds only its dynamic-request counts.
  struct StreamTotals {
    [[nodiscard]] bool operator==(const StreamTotals&) const = default;

    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t backfilled = 0;
    std::size_t evolving = 0;
    std::size_t satisfied_dyn = 0;
    std::size_t granted_dyn_requests = 0;
    Duration wait_sum;
    Duration turnaround_sum;
    Duration max_wait;
  };
  [[nodiscard]] const StreamTotals& totals() const { return totals_; }

  /// Integral of used cores (core-seconds) from simulation start to the
  /// last usage event. Equals used_core_seconds(first_submit, last_finish)
  /// once every job has finished (usage is zero outside that window).
  [[nodiscard]] double streaming_used_core_seconds() const {
    return usage_integral_;
  }

  /// Still-live records, keyed by id (streaming mode: jobs not yet
  /// finished — summarize() folds their dyn counters on top of totals()).
  [[nodiscard]] const std::unordered_map<JobId, JobRecord>& live() const {
    return jobs_;
  }

  /// Records, in submission order. Materialized mode only.
  [[nodiscard]] std::vector<JobRecord> records() const;
  [[nodiscard]] const JobRecord& record(JobId id) const;

  /// (time, used cores) step series; one point per change.
  [[nodiscard]] const std::vector<std::pair<Time, CoreCount>>& usage_series()
      const {
    return usage_;
  }

  [[nodiscard]] Time first_submit() const { return first_submit_; }
  [[nodiscard]] Time last_finish() const { return last_finish_; }
  [[nodiscard]] CoreCount capacity() const { return capacity_; }

  /// Integral of used cores over [from, to] in core-seconds.
  [[nodiscard]] double used_core_seconds(Time from, Time to) const;

  /// Serializable streaming-mode state for durable snapshots: the running
  /// totals, the incremental usage integral, and the still-live job
  /// records (sorted by id so the encoded form is byte-stable).
  struct State {
    [[nodiscard]] bool operator==(const State&) const = default;

    StreamTotals totals;
    double usage_integral = 0.0;
    Time last_usage_t;
    CoreCount last_used = 0;
    Time first_submit = Time::far_future();
    Time last_finish;
    std::vector<JobRecord> live;
  };
  /// Streaming mode only (materialized runs keep every record; snapshots
  /// are a service-mode concern and service mode requires streaming).
  [[nodiscard]] State save_state() const;
  /// Streaming mode only, and only into a recorder that saw no events yet.
  void restore_state(const State& s);

 private:
  void sample_usage();
  JobRecord& rec(JobId id);

  sim::Simulator& sim_;
  const cluster::Cluster& cluster_;
  CoreCount capacity_;
  std::unordered_map<JobId, JobRecord> jobs_;
  std::vector<JobId> order_;
  std::vector<std::pair<Time, CoreCount>> usage_;
  Time first_submit_ = Time::far_future();
  Time last_finish_ = Time::epoch();
  bool streaming_ = false;
  StreamTotals totals_;
  double usage_integral_ = 0.0;
  Time last_usage_t_ = Time::epoch();
  CoreCount last_used_ = 0;
};

}  // namespace dbs::metrics
