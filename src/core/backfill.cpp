#include "core/backfill.hpp"

#include <limits>

#include "common/assert.hpp"

namespace dbs::core {

namespace {

/// Plans the tail of a walk: every job past the reservation budget while
/// someone waits. Such a job either fits immediately (backfill) or is
/// skipped, and "fits" is exactly `cores <= min_free(now, now + walltime)`
/// of the evolving plan profile, which the staircase answers in
/// O(log steps). A planned backfill mutates the profile, so the staircase
/// is rebuilt before the next job is judged. Byte-identical to continuing
/// the generic walk.
void plan_tail(const std::vector<const rms::Job*>& prioritized,
               std::size_t begin, const PlanOptions& options, Plan& out,
               TailStaircase& staircase) {
  staircase.rebuild(out.profile, options.now);
  for (std::size_t i = begin; i < prioritized.size(); ++i) {
    if (i + 8 < prioritized.size()) __builtin_prefetch(prioritized[i + 8]);
    const rms::Job* job = prioritized[i];
    DBS_ASSERT(job != nullptr, "null job in plan input");
    ++staircase.replanned;
    const Duration wall = job->spec().walltime;
    if (job->spec().cores > staircase.min_for(wall)) continue;
    const Time start = options.now;
    const Time end = start + wall;
    out.profile.subtract(start, end, job->spec().cores);
    out.table.add(Reservation{job, start, end, job->spec().cores,
                              /*start_now=*/true, /*backfilled=*/true});
    staircase.rebuild(out.profile, options.now);
  }
}

/// Shared planning walk over `out` (profile already primed with the base,
/// table empty). `force_all` plans every job regardless of depth and
/// backfill rules (used for delay measurement).
void plan_into(const std::vector<const rms::Job*>& prioritized,
               const PlanOptions& options, bool force_all, Plan& out,
               TailStaircase* staircase) {
  std::size_t start_later = 0;
  bool someone_waits = false;
  Time exclusive_latest_start = options.now;

  for (std::size_t index = 0; index < prioritized.size(); ++index) {
    const rms::Job* job = prioritized[index];
    DBS_ASSERT(job != nullptr, "null job in plan input");
    if (!force_all && someone_waits &&
        start_later >= options.reservation_limit) {
      // Tail: reservations are exhausted and someone waits, so no job below
      // this point can be anything but an immediate backfill.
      if (!options.allow_backfill) return;  // nothing can be planned at all
      if (staircase != nullptr && !options.drain_for_exclusive) {
        plan_tail(prioritized, index, options, out, *staircase);
        return;
      }
    }
    if (staircase != nullptr) ++staircase->replanned;
    const CoreCount cores = job->spec().cores;
    const Duration walltime = job->spec().walltime;
    const bool exclusive = job->spec().exclusive_priority;

    Time not_before = options.now;
    if (options.drain_for_exclusive && !exclusive)
      not_before = exclusive_latest_start;

    const Time start =
        out.profile.earliest_fit(cores, walltime, not_before);
    if (start == Time::far_future()) {
      // Larger than the whole machine: unsatisfiable, never planned.
      someone_waits = true;
      continue;
    }

    const bool is_start_now = start == options.now;
    const bool is_backfill = is_start_now && someone_waits;
    if (!force_all) {
      if (is_start_now && is_backfill && !options.allow_backfill) {
        someone_waits = true;
        continue;
      }
      if (!is_start_now) {
        if (start_later >= options.reservation_limit) {
          someone_waits = true;
          continue;
        }
        ++start_later;
      }
    }

    out.profile.subtract(start, start + walltime, cores);
    out.table.add(Reservation{job, start, start + walltime, cores,
                              is_start_now, is_backfill});
    if (exclusive) exclusive_latest_start = max(exclusive_latest_start, start);
    if (!is_start_now) someone_waits = true;
  }
}

}  // namespace

Plan plan_jobs(const std::vector<const rms::Job*>& prioritized,
               AvailabilityProfile base, const PlanOptions& options) {
  Plan plan{ReservationTable{}, std::move(base)};
  plan.table.reserve(prioritized.size());
  plan_into(prioritized, options, /*force_all=*/false, plan, nullptr);
  return plan;
}

void plan_jobs_into(const std::vector<const rms::Job*>& prioritized,
                    const AvailabilityProfile& base, const PlanOptions& options,
                    Plan& out, TailStaircase* staircase) {
  out.profile = base;
  out.table.clear();
  out.table.reserve(prioritized.size());
  plan_into(prioritized, options, /*force_all=*/false, out, staircase);
}

ReservationTable replan_all(const std::vector<const rms::Job*>& jobs,
                            AvailabilityProfile base,
                            const PlanOptions& options) {
  Plan plan{ReservationTable{}, std::move(base)};
  replan_all_into(jobs, plan.profile, options, plan);
  return std::move(plan.table);
}

void replan_all_into(const std::vector<const rms::Job*>& jobs,
                     const AvailabilityProfile& base, const PlanOptions& options,
                     Plan& out) {
  PlanOptions all = options;
  all.reservation_limit = std::numeric_limits<std::size_t>::max();
  all.allow_backfill = true;
  if (&out.profile != &base) out.profile = base;
  out.table.clear();
  out.table.reserve(jobs.size());
  plan_into(jobs, all, /*force_all=*/true, out, nullptr);
}

}  // namespace dbs::core
