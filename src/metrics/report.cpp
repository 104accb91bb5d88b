#include "metrics/report.hpp"

#include "common/assert.hpp"

namespace dbs::metrics {

namespace {

/// Makespan-derived quantities shared by both recorder modes.
void finish_summary(const Recorder& recorder, Duration wait_sum,
                    Duration turnaround_sum, double used_core_seconds,
                    WorkloadSummary& s) {
  if (s.jobs_completed == 0) return;
  const auto n = static_cast<std::int64_t>(s.jobs_completed);
  s.avg_wait = wait_sum / n;
  s.avg_turnaround = turnaround_sum / n;
  s.makespan = recorder.last_finish() - recorder.first_submit();
  if (s.makespan > Duration::zero()) {
    const double capacity_core_seconds =
        static_cast<double>(recorder.capacity()) * s.makespan.as_seconds();
    s.utilization = 100.0 * used_core_seconds / capacity_core_seconds;
    s.throughput_jobs_per_min =
        static_cast<double>(s.jobs_completed) / s.makespan.as_minutes();
  }
}

}  // namespace

WorkloadSummary summarize(const Recorder& recorder) {
  WorkloadSummary s;

  if (recorder.streaming()) {
    // Finished jobs were folded into the running totals as they completed
    // or were cancelled; jobs still live at the end (never finished)
    // contribute only their dynamic-protocol counters, exactly as in the
    // materialized path.
    const Recorder::StreamTotals& t = recorder.totals();
    s.jobs_submitted = t.submitted;
    s.jobs_completed = t.completed;
    s.backfilled_jobs = t.backfilled;
    s.evolving_jobs = t.evolving;
    s.satisfied_dyn_jobs = t.satisfied_dyn;
    s.granted_dyn_requests = t.granted_dyn_requests;
    s.max_wait = t.max_wait;
    for (const auto& [id, r] : recorder.live()) {
      if (r.evolving) ++s.evolving_jobs;
      if (r.dyn_satisfied()) ++s.satisfied_dyn_jobs;
      s.granted_dyn_requests += static_cast<std::size_t>(r.dyn_grants);
    }
    finish_summary(recorder, t.wait_sum, t.turnaround_sum,
                   recorder.streaming_used_core_seconds(), s);
    return s;
  }

  const std::vector<JobRecord> records = recorder.records();
  s.jobs_submitted = records.size();

  Duration wait_sum, turnaround_sum;
  for (const JobRecord& r : records) {
    if (r.evolving) ++s.evolving_jobs;
    if (r.dyn_satisfied()) ++s.satisfied_dyn_jobs;
    s.granted_dyn_requests += static_cast<std::size_t>(r.dyn_grants);
    if (!r.completed()) continue;
    ++s.jobs_completed;
    if (r.backfilled) ++s.backfilled_jobs;
    wait_sum += r.wait_time();
    s.max_wait = max(s.max_wait, r.wait_time());
    turnaround_sum += r.turnaround();
  }
  finish_summary(recorder, wait_sum, turnaround_sum,
                 s.jobs_completed > 0
                     ? recorder.used_core_seconds(recorder.first_submit(),
                                                  recorder.last_finish())
                     : 0.0,
                 s);
  return s;
}

WorkloadSummary merge_summaries(const std::vector<WorkloadSummary>& parts,
                                const std::vector<CoreCount>& capacities) {
  DBS_REQUIRE(parts.size() == capacities.size(),
              "merge_summaries needs one capacity per summary");
  WorkloadSummary m;
  Duration wait_sum, turnaround_sum;
  double used_core_seconds = 0.0;
  CoreCount total_capacity = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const WorkloadSummary& s = parts[i];
    m.jobs_submitted += s.jobs_submitted;
    m.jobs_completed += s.jobs_completed;
    m.evolving_jobs += s.evolving_jobs;
    m.satisfied_dyn_jobs += s.satisfied_dyn_jobs;
    m.granted_dyn_requests += s.granted_dyn_requests;
    m.backfilled_jobs += s.backfilled_jobs;
    m.makespan = max(m.makespan, s.makespan);
    m.max_wait = max(m.max_wait, s.max_wait);
    const auto n = static_cast<std::int64_t>(s.jobs_completed);
    wait_sum += s.avg_wait * n;
    turnaround_sum += s.avg_turnaround * n;
    used_core_seconds += s.utilization / 100.0 *
                         static_cast<double>(capacities[i]) *
                         s.makespan.as_seconds();
    total_capacity += capacities[i];
  }
  if (m.jobs_completed == 0) return m;
  const auto n = static_cast<std::int64_t>(m.jobs_completed);
  m.avg_wait = wait_sum / n;
  m.avg_turnaround = turnaround_sum / n;
  if (m.makespan > Duration::zero()) {
    m.utilization = 100.0 * used_core_seconds /
                    (static_cast<double>(total_capacity) *
                     m.makespan.as_seconds());
    m.throughput_jobs_per_min =
        static_cast<double>(m.jobs_completed) / m.makespan.as_minutes();
  }
  return m;
}

std::vector<WaitPoint> wait_series(const Recorder& recorder,
                                   const std::string& type_tag) {
  std::vector<WaitPoint> out;
  const std::vector<JobRecord> records = recorder.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JobRecord& r = records[i];
    if (!type_tag.empty() && r.type_tag != type_tag) continue;
    if (!r.start.has_value()) continue;
    out.push_back(WaitPoint{i, r.name, r.wait_time()});
  }
  return out;
}

std::vector<std::string> performance_header() {
  return {"Config",          "Time [mins]",       "Satisfied Dyn Jobs",
          "Util [%]",        "Throughput [Jobs/min]", "Throughput [% Increase]"};
}

std::vector<std::string> performance_row(const std::string& config_name,
                                         const WorkloadSummary& summary,
                                         double baseline_throughput) {
  std::string increase = "-";
  if (baseline_throughput > 0.0) {
    const double pct = 100.0 *
                       (summary.throughput_jobs_per_min - baseline_throughput) /
                       baseline_throughput;
    increase = TextTable::num(pct, 1);
  }
  return {config_name,
          TextTable::num(summary.makespan.as_minutes(), 2),
          TextTable::num(static_cast<std::int64_t>(summary.satisfied_dyn_jobs)),
          TextTable::num(summary.utilization, 2),
          TextTable::num(summary.throughput_jobs_per_min, 2),
          increase};
}

}  // namespace dbs::metrics
