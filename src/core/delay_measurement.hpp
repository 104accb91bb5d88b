// Delay measurement for dynamic requests (Algorithm 2, steps 11-24 support).
//
// A candidate dynamic allocation holds `extra_cores` from `now` until the
// evolving job's walltime end (the scheduler cannot know it will finish
// earlier — the paper's §III-D discusses exactly this overestimation).
// Delays are the per-job differences between the planned starts before and
// after that hold is applied.
#pragma once

#include <string>
#include <vector>

#include "core/availability_profile.hpp"
#include "core/backfill.hpp"
#include "core/dfs_engine.hpp"
#include "core/reservation_table.hpp"
#include "rms/job.hpp"

namespace dbs::obs {
class Tracer;
}

namespace dbs::core {

/// The tentative resource hold a dynamic request would create.
struct DynHold {
  CoreCount extra_cores = 0;
  Time from;
  Time until;  ///< owner's walltime end
};

/// Builds the hold for `request` of running job `owner` at time `now`.
[[nodiscard]] DynHold make_hold(const rms::Job& owner,
                                const rms::DynRequest& request, Time now);

/// The outcome of evaluating one dynamic request against the current plan.
struct DelayMeasurement {
  bool feasible = false;               ///< enough idle cores right now
  std::vector<DelayedJob> delays;      ///< per protected job (delay >= 0)
  ReservationTable replanned;          ///< new starts with the hold applied
  AvailabilityProfile profile_after;   ///< planning profile with the hold
};

/// Reusable working storage for measure_dynamic_request_into: the scheduler
/// keeps one across its dynamic-request loop so a measurement allocates
/// nothing after the first request.
struct MeasureScratch {
  std::vector<const rms::Job*> planned;
  std::vector<const rms::Job*> still_protected;
  Plan replan;
  std::string json;
};

/// The jobs whose delays the fairness policies consider (paper §III-C,
/// Fig. 5): every StartNow job plus the first `delay_depth`
/// (ReservationDelayDepth) StartLater reservations, per the step-10
/// classification in `baseline`. The set is computed once per iteration and
/// stays fixed while that iteration's dynamic requests are processed.
[[nodiscard]] std::vector<const rms::Job*> protected_subset(
    const std::vector<const rms::Job*>& prioritized,
    const ReservationTable& baseline, std::size_t delay_depth);

/// Scratch-reusing variant (clears and refills `out`).
void protected_subset_into(const std::vector<const rms::Job*>& prioritized,
                           const ReservationTable& baseline,
                           std::size_t delay_depth,
                           std::vector<const rms::Job*>& out);

/// Evaluates `hold` against `baseline` (the current plan, in priority
/// order) and `planning_profile` (the profile those jobs were planned on,
/// *without* them subtracted). `physical_free_now` is the real number of
/// idle cores (the feasibility test of step 12/13).
///
/// All jobs planned in `baseline` are replanned (they all compete for
/// space), but delays are reported only for `protected_jobs`.
/// When `tracer` is attached, every measurement publishes a "measure"
/// event carrying the hold, the feasibility test result and the measured
/// per-protected-job delays (the paper's per-decision audit data).
[[nodiscard]] DelayMeasurement measure_dynamic_request(
    const DynHold& hold, const std::vector<const rms::Job*>& candidate_jobs,
    const std::vector<const rms::Job*>& protected_jobs,
    const ReservationTable& baseline, const AvailabilityProfile& planning_profile,
    CoreCount physical_free_now, const PlanOptions& options,
    obs::Tracer* tracer = nullptr);

/// Hot-path variant: reuses `out`'s and `scratch`'s storage instead of
/// allocating a fresh measurement per request, and — copy-on-write — only
/// copies the planning profile once the feasibility test passes.
/// When `out.feasible` is false, `out.replanned`/`out.profile_after` are
/// stale leftovers from an earlier call and must not be read.
void measure_dynamic_request_into(
    const DynHold& hold, const std::vector<const rms::Job*>& candidate_jobs,
    const std::vector<const rms::Job*>& protected_jobs,
    const ReservationTable& baseline,
    const AvailabilityProfile& planning_profile, CoreCount physical_free_now,
    const PlanOptions& options, obs::Tracer* tracer, MeasureScratch& scratch,
    DelayMeasurement& out);

/// JSON array of measured delays — `[{"job": 4, "user": "bob",
/// "delay_s": 30.5}, ...]` — for trace events and the decision audit.
[[nodiscard]] std::string delays_to_json(const std::vector<DelayedJob>& delays);

/// Appending variant for reused string buffers on the trace path.
void delays_to_json(const std::vector<DelayedJob>& delays, std::string& out);

/// Per-job start-time differences between two plans covering the same jobs.
[[nodiscard]] std::vector<DelayedJob> diff_plans(
    const std::vector<const rms::Job*>& jobs, const ReservationTable& before,
    const ReservationTable& after);

/// Scratch-reusing variant (clears and refills `out`).
void diff_plans_into(const std::vector<const rms::Job*>& jobs,
                     const ReservationTable& before,
                     const ReservationTable& after,
                     std::vector<DelayedJob>& out);

}  // namespace dbs::core
