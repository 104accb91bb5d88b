// The lookup-based plan probes, kept verbatim (less a prefetch) as the
// reference for the order-walking ones in core/delay_measurement.cpp. The
// protected set is found by looking every queued job up in the baseline; a
// measurement re-plans the queued jobs the baseline holds, drops protected
// jobs it does not hold, and finds each remaining one in both plans. A
// linear find stands in for the reservation table's id index. Slow but
// simple: it assumes nothing about the order of a table, so agreement
// shows that the walks' order invariants hold.
#pragma once

#include <cstddef>
#include <vector>

#include "../testutil.hpp"
#include "common/assert.hpp"
#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"
#include "core/reservation_table.hpp"

namespace dbs::core::testing {

inline void reference_diff_plans_into(const std::vector<const rms::Job*>& jobs,
                                      const ReservationTable& before,
                                      const ReservationTable& after,
                                      std::vector<DelayedJob>& out) {
  out.clear();
  out.reserve(jobs.size());
  for (const rms::Job* job : jobs) {
    const Reservation* old_r = test::reservation_of(before, job->id());
    const Reservation* new_r = test::reservation_of(after, job->id());
    if (old_r == nullptr) continue;  // was never planned: not protected
    DBS_ASSERT(new_r != nullptr, "replan lost a protected job");
    // Negative diffs are possible: pushing a big job back can let a small
    // one slip in earlier. Only positive delays matter for fairness; the
    // DFS engine ignores the rest.
    const Duration delay = new_r->start - old_r->start;
    out.push_back(DelayedJob{job, delay});
  }
}

inline void reference_protected_subset_into(
    const std::vector<const rms::Job*>& prioritized,
    const ReservationTable& baseline, std::size_t delay_depth,
    std::vector<const rms::Job*>& out) {
  out.clear();
  std::size_t later_seen = 0;
  for (std::size_t i = 0; i < prioritized.size(); ++i) {
    const rms::Job* job = prioritized[i];
    const Reservation* r = test::reservation_of(baseline, job->id());
    if (r == nullptr) continue;
    if (r->start_now)
      out.push_back(job);
    else if (later_seen++ < delay_depth)
      out.push_back(job);
  }
}

/// What the reference measurement computed from its inputs.
struct ReferenceMeasurement {
  bool feasible = false;
  std::size_t replanned_jobs = 0;  ///< the "measure" event's `replanned`
  std::vector<DelayedJob> delays;
  ReservationTable replanned;
};

/// The lookup-based measurement: `candidate_jobs` (the prioritized queue)
/// filtered by baseline membership are re-planned under the hold, and the
/// protected jobs the baseline holds are diffed.
inline ReferenceMeasurement reference_measure(
    const DynHold& hold, const std::vector<const rms::Job*>& candidate_jobs,
    const std::vector<const rms::Job*>& protected_jobs,
    const ReservationTable& baseline,
    const AvailabilityProfile& planning_profile, CoreCount physical_free_now,
    const PlanOptions& options) {
  ReferenceMeasurement out;
  if (hold.extra_cores > physical_free_now) return out;
  out.feasible = true;
  std::vector<const rms::Job*> planned;
  for (const rms::Job* job : candidate_jobs)
    if (test::reservation_of(baseline, job->id()) != nullptr)
      planned.push_back(job);
  out.replanned_jobs = planned.size();
  AvailabilityProfile after = planning_profile;
  after.subtract_clamped(hold.from, hold.until, hold.extra_cores);
  out.replanned = replan_all(planned, after, options);
  std::vector<const rms::Job*> still_protected;
  for (const rms::Job* job : protected_jobs)
    if (test::reservation_of(baseline, job->id()) != nullptr)
      still_protected.push_back(job);
  reference_diff_plans_into(still_protected, baseline, out.replanned,
                            out.delays);
  return out;
}

}  // namespace dbs::core::testing
