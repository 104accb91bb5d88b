#include "metrics/recorder.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dbs::metrics {

Duration JobRecord::wait_time() const {
  DBS_REQUIRE(start.has_value(), "job never started");
  return *start - submit;
}

Duration JobRecord::turnaround() const {
  DBS_REQUIRE(end.has_value(), "job never finished");
  return *end - submit;
}

Recorder::Recorder(sim::Simulator& simulator, const cluster::Cluster& cluster)
    : sim_(simulator), cluster_(cluster), capacity_(cluster.total_cores()) {}

JobRecord& Recorder::rec(JobId id) {
  auto it = jobs_.find(id);
  DBS_REQUIRE(it != jobs_.end(), "event for an unknown job");
  return it->second;
}

void Recorder::set_streaming(bool on) {
  DBS_REQUIRE(jobs_.empty() && order_.empty() && usage_.empty(),
              "streaming mode must be set before any submission");
  streaming_ = on;
}

void Recorder::sample_usage() {
  const Time now = sim_.now();
  const CoreCount used = cluster_.used_cores();
  if (streaming_) {
    // Incremental integral: these are exactly the terms the materialized
    // used_core_seconds() fold would add, in the same order (a same-time
    // resample contributes a zero-width term, which adds +0.0 exactly).
    usage_integral_ +=
        static_cast<double>(last_used_) * (now - last_usage_t_).as_seconds();
    last_usage_t_ = now;
    last_used_ = used;
    return;
  }
  if (!usage_.empty() && usage_.back().first == now)
    usage_.back().second = used;
  else
    usage_.emplace_back(now, used);
}

void Recorder::on_submit(const rms::Job& job) {
  JobRecord r;
  r.id = job.id();
  r.name = job.spec().name;
  r.user = job.spec().cred.user;
  r.type_tag = job.spec().type_tag;
  r.cores_requested = job.spec().cores;
  r.submit = job.submit_time();
  jobs_.emplace(job.id(), std::move(r));
  if (!streaming_) order_.push_back(job.id());
  ++totals_.submitted;
  first_submit_ = min(first_submit_, job.submit_time());
}

void Recorder::on_job_start(const rms::Job& job) {
  JobRecord& r = rec(job.id());
  r.start = job.start_time();
  r.backfilled = job.was_backfilled();
  r.cores_peak = std::max(r.cores_peak, job.allocated_cores());
  sample_usage();
}

void Recorder::on_job_finish(const rms::Job& job) {
  JobRecord& r = rec(job.id());
  r.end = job.end_time();
  last_finish_ = max(last_finish_, job.end_time());
  sample_usage();
  if (streaming_) {
    ++totals_.completed;
    if (r.backfilled) ++totals_.backfilled;
    if (r.evolving) ++totals_.evolving;
    if (r.dyn_satisfied()) ++totals_.satisfied_dyn;
    totals_.granted_dyn_requests += static_cast<std::size_t>(r.dyn_grants);
    totals_.wait_sum += r.wait_time();
    totals_.max_wait = max(totals_.max_wait, r.wait_time());
    totals_.turnaround_sum += r.turnaround();
    jobs_.erase(job.id());
  }
}

void Recorder::on_dyn_request(const rms::Job& job, const rms::DynRequest&) {
  JobRecord& r = rec(job.id());
  r.evolving = true;
  ++r.dyn_requests;
}

void Recorder::on_dyn_grant(const rms::Job& job, const rms::DynRequest&,
                            CoreCount) {
  JobRecord& r = rec(job.id());
  ++r.dyn_grants;
  r.cores_peak = std::max(r.cores_peak, job.allocated_cores());
  sample_usage();
}

void Recorder::on_dyn_reject(const rms::Job& job, const rms::DynRequest&) {
  ++rec(job.id()).dyn_rejects;
}

void Recorder::on_dyn_release(const rms::Job& job, CoreCount) {
  rec(job.id());
  sample_usage();
}

void Recorder::on_malleable_shrink(const rms::Job& job, CoreCount) {
  ++rec(job.id()).malleable_shrinks;
  sample_usage();
}

void Recorder::on_requeue(const rms::Job& job) {
  JobRecord& r = rec(job.id());
  ++r.requeues;
  r.start.reset();
  sample_usage();
}

void Recorder::on_nodes_lost(const rms::Job& job, CoreCount) {
  rec(job.id());
  sample_usage();
}

void Recorder::on_cancel(const rms::Job& job, CoreCount) {
  const JobRecord& r = rec(job.id());
  sample_usage();
  if (streaming_) {
    if (r.evolving) ++totals_.evolving;
    if (r.dyn_satisfied()) ++totals_.satisfied_dyn;
    totals_.granted_dyn_requests += static_cast<std::size_t>(r.dyn_grants);
    jobs_.erase(job.id());
  }
}

std::vector<JobRecord> Recorder::records() const {
  DBS_REQUIRE(!streaming_,
              "per-job records are not kept in streaming mode");
  std::vector<JobRecord> out;
  out.reserve(order_.size());
  for (const JobId id : order_) out.push_back(jobs_.at(id));
  return out;
}

const JobRecord& Recorder::record(JobId id) const {
  auto it = jobs_.find(id);
  DBS_REQUIRE(it != jobs_.end(), "unknown job id");
  return it->second;
}

Recorder::State Recorder::save_state() const {
  DBS_REQUIRE(streaming_, "snapshots require streaming mode");
  State s;
  s.totals = totals_;
  s.usage_integral = usage_integral_;
  s.last_usage_t = last_usage_t_;
  s.last_used = last_used_;
  s.first_submit = first_submit_;
  s.last_finish = last_finish_;
  s.live.reserve(jobs_.size());
  for (const auto& [id, record] : jobs_) s.live.push_back(record);
  std::sort(s.live.begin(), s.live.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
  return s;
}

void Recorder::restore_state(const State& s) {
  DBS_REQUIRE(streaming_, "snapshots require streaming mode");
  DBS_REQUIRE(jobs_.empty() && totals_.submitted == 0,
              "restore requires a fresh recorder");
  totals_ = s.totals;
  usage_integral_ = s.usage_integral;
  last_usage_t_ = s.last_usage_t;
  last_used_ = s.last_used;
  first_submit_ = s.first_submit;
  last_finish_ = s.last_finish;
  for (const JobRecord& record : s.live) jobs_.emplace(record.id, record);
}

double Recorder::used_core_seconds(Time from, Time to) const {
  DBS_REQUIRE(from <= to, "empty window");
  double total = 0.0;
  CoreCount current = 0;
  Time cursor = from;
  for (const auto& [t, used] : usage_) {
    if (t <= from) {
      current = used;
      continue;
    }
    if (t >= to) break;
    total += static_cast<double>(current) * (t - cursor).as_seconds();
    cursor = t;
    current = used;
  }
  total += static_cast<double>(current) * (to - cursor).as_seconds();
  return total;
}

}  // namespace dbs::metrics
