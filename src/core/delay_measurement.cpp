#include "core/delay_measurement.hpp"

#include "common/assert.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"

namespace dbs::core {

void delays_to_json(const std::vector<DelayedJob>& delays, std::string& out) {
  out += '[';
  bool first = true;
  for (const DelayedJob& d : delays) {
    if (!first) out += ", ";
    out += "{\"job\": ";
    out += std::to_string(d.job->id().value());
    out += ", \"user\": ";
    out += obs::json_quote(d.job->spec().cred.user);
    out += ", \"delay_s\": ";
    out += obs::json_number(d.delay.as_seconds());
    out += '}';
    first = false;
  }
  out += ']';
}

std::string delays_to_json(const std::vector<DelayedJob>& delays) {
  std::string out;
  delays_to_json(delays, out);
  return out;
}

DynHold make_hold(const rms::Job& owner, const rms::DynRequest& request,
                  Time now) {
  DBS_REQUIRE(owner.is_running(), "dynamic hold needs a running owner");
  // The hold must cover at least an instant even if the owner is at the very
  // end of its walltime.
  const Time until = max(owner.walltime_end(), now + Duration::micros(1));
  return DynHold{request.extra_cores, now, until};
}

void diff_plans_into(const std::vector<const rms::Job*>& jobs,
                     const ReservationTable& before,
                     const ReservationTable& after,
                     std::vector<DelayedJob>& out) {
  out.clear();
  out.reserve(jobs.size());
  const std::vector<Reservation>& old_items = before.items();
  const std::vector<Reservation>& new_items = after.items();
  DBS_ASSERT(new_items.size() == old_items.size(),
             "replan planned a different set of jobs");
  std::size_t next = 0;  // jobs[next] is the next job to pick up
  for (std::size_t i = 0; i < old_items.size(); ++i) {
    const Reservation& old_r = old_items[i];
    DBS_ASSERT(new_items[i].job == old_r.job,
               "replan is not aligned with its baseline");
    if (next == jobs.size() || jobs[next] != old_r.job) continue;
    // Negative diffs are possible: pushing a big job back can let a small
    // one slip in earlier. Only positive delays matter for fairness; the
    // DFS engine ignores the rest.
    out.push_back(DelayedJob{old_r.job, new_items[i].start - old_r.start});
    ++next;
  }
  DBS_REQUIRE(next == jobs.size(),
              "jobs must be a subsequence of the baseline plan");
}

std::vector<DelayedJob> diff_plans(const std::vector<const rms::Job*>& jobs,
                                   const ReservationTable& before,
                                   const ReservationTable& after) {
  std::vector<DelayedJob> delays;
  diff_plans_into(jobs, before, after, delays);
  return delays;
}

void protected_subset_into(const ReservationTable& baseline,
                           std::size_t delay_depth,
                           std::vector<const rms::Job*>& out) {
  out.clear();
  std::size_t later_seen = 0;
  for (const Reservation& r : baseline.items()) {
    if (r.start_now)
      out.push_back(r.job);
    else if (later_seen++ < delay_depth)
      out.push_back(r.job);
  }
}

std::vector<const rms::Job*> protected_subset(const ReservationTable& baseline,
                                              std::size_t delay_depth) {
  std::vector<const rms::Job*> out;
  protected_subset_into(baseline, delay_depth, out);
  return out;
}

namespace {

/// Publishes the per-measurement "measure" trace event: the hold, the
/// feasibility test and, when feasible, the `replanned` job count and the
/// measured per-protected-job delays.
void emit_measure_trace(const DynHold& hold, std::size_t protected_count,
                        CoreCount physical_free_now, std::size_t replanned,
                        const DelayMeasurement& measurement,
                        const PlanOptions& options, obs::Tracer* tracer,
                        std::string& json_scratch) {
  if (tracer == nullptr || !tracer->enabled()) return;
  if (!measurement.feasible) {
    tracer->emit(obs::TraceEvent(options.now, "sched", "measure")
                     .field("extra_cores", hold.extra_cores)
                     .field("free_cores", physical_free_now)
                     .field("feasible", false)
                     .field("protected", protected_count));
    return;
  }
  json_scratch.clear();
  delays_to_json(measurement.delays, json_scratch);
  tracer->emit(obs::TraceEvent(options.now, "sched", "measure")
                   .field("extra_cores", hold.extra_cores)
                   .field("until_us", hold.until.as_micros())
                   .field("free_cores", physical_free_now)
                   .field("feasible", true)
                   .field("replanned", replanned)
                   .field("protected", protected_count)
                   .field("depth", measurement.delays.size())
                   .field_json("delays", json_scratch));
}

}  // namespace

void measure_dynamic_request_into(
    const DynHold& hold, const std::vector<const rms::Job*>& protected_jobs,
    const ReservationTable& baseline,
    const AvailabilityProfile& planning_profile, CoreCount physical_free_now,
    const PlanOptions& options, obs::Tracer* tracer, MeasureScratch& scratch,
    DelayMeasurement& out) {
  DBS_REQUIRE(hold.extra_cores > 0, "hold must request cores");
  out.feasible = false;
  out.delays.clear();

  // Step 12/13: are there enough idle cores *right now*? Queued jobs do not
  // occupy anything yet; only physically free cores count. Infeasible
  // requests never touch the profile — no copy, no replan.
  if (hold.extra_cores > physical_free_now) {
    emit_measure_trace(hold, protected_jobs.size(), physical_free_now,
                       /*replanned=*/0, out, options, tracer, scratch.json);
    return;
  }
  out.feasible = true;

  // Every job with a baseline reservation is replanned (they all compete
  // for the space the hold removes) — but only the protected jobs have
  // their delays reported to the fairness engine.
  scratch.planned.clear();
  scratch.planned.reserve(baseline.size());
  for (const Reservation& r : baseline.items())
    scratch.planned.push_back(r.job);

  // Clamped: with a reserved dynamic partition the planning profile may
  // already sit at zero while the physical cores for the hold come out of
  // the partition. max(0, phys - partition) - hold clamped at zero equals
  // max(0, phys - hold - partition) wherever the unclamped value was
  // positive, so planning stays exact for static jobs.
  out.profile_after = planning_profile;
  out.profile_after.subtract_clamped(hold.from, hold.until, hold.extra_cores);
  replan_all_into(scratch.planned, out.profile_after, options, scratch.replan);
  // Copy-assigned, not swapped: each table keeps its own storage, so no
  // request after the first allocates.
  out.replanned = scratch.replan.table;
  diff_plans_into(protected_jobs, baseline, out.replanned, out.delays);
  emit_measure_trace(hold, protected_jobs.size(), physical_free_now,
                     scratch.planned.size(), out, options, tracer, scratch.json);
}

DelayMeasurement measure_dynamic_request(
    const DynHold& hold, const std::vector<const rms::Job*>& protected_jobs,
    const ReservationTable& baseline,
    const AvailabilityProfile& planning_profile, CoreCount physical_free_now,
    const PlanOptions& options, obs::Tracer* tracer) {
  MeasureScratch scratch;
  DelayMeasurement out;
  measure_dynamic_request_into(hold, protected_jobs, baseline,
                               planning_profile, physical_free_now, options,
                               tracer, scratch, out);
  // Preserve the documented value-returning contract: the profile always
  // reflects the planning input (plus the hold when feasible).
  if (!out.feasible) out.profile_after = planning_profile;
  return out;
}

}  // namespace dbs::core
