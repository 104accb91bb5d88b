// The planning engine behind steps 10, 25 and 26 of the extended Maui
// iteration (Algorithm 2): walk eligible jobs in priority order, plan an
// immediate start where possible, create reservations for up to
// `reservation_limit` StartLater jobs, and let lower-priority jobs start
// out of order (backfill) as long as they do not disturb those reservations.
//
// Reservations beyond the limit get nothing and simply wait — a small
// limit is Maui's optimistic (EASY-like) backfilling, a large one is
// conservative backfilling.
#pragma once

#include <cstddef>
#include <vector>

#include "core/availability_profile.hpp"
#include "core/reservation_table.hpp"
#include "core/tail_staircase.hpp"
#include "rms/job.hpp"

namespace dbs::core {

struct PlanOptions {
  Time now;
  /// Maximum number of StartLater reservations to create.
  std::size_t reservation_limit = 1;
  /// When false, a job that fits now while a higher-priority job waits is
  /// not planned (it must wait for a regular start).
  bool allow_backfill = true;
  /// ESP Z-job drain: while an exclusive-priority job is queued, no other
  /// job may start; non-exclusive jobs are planned no earlier than the
  /// latest planned exclusive start.
  bool drain_for_exclusive = false;
};

struct Plan {
  /// Planned jobs in priority order: every walk below adds reservations in
  /// the order of its input and visits each job once, so the table is a
  /// subsequence of that input. start == options.now means StartNow.
  ReservationTable table;
  /// The base profile with every planned job subtracted.
  AvailabilityProfile profile;
};

/// Plans `prioritized` (highest priority first) onto `base`.
[[nodiscard]] Plan plan_jobs(const std::vector<const rms::Job*>& prioritized,
                             AvailabilityProfile base,
                             const PlanOptions& options);

/// Allocation-free variant for the per-iteration hot path: `out` keeps its
/// storage across calls (the profile is copy-assigned from `base`, reusing
/// capacity; the table is cleared, not reallocated).
///
/// With a `staircase`, each job in the tail of the walk (past the
/// reservation budget, so it can only backfill now or wait) is judged by
/// one staircase lookup instead of a full earliest_fit. The planned set,
/// the table and the profile are byte-identical to the generic walk.
void plan_jobs_into(const std::vector<const rms::Job*>& prioritized,
                    const AvailabilityProfile& base, const PlanOptions& options,
                    Plan& out, TailStaircase* staircase = nullptr);

/// Re-plans exactly the given jobs (no depth cutoff, nothing skipped) onto a
/// different base profile; used to measure the delays a tentative dynamic
/// allocation would cause. Jobs must be in priority order. Given a
/// baseline table's jobs, the result is index-aligned with that baseline:
/// a hold ends, so every job the baseline planned still fits after it.
[[nodiscard]] ReservationTable replan_all(
    const std::vector<const rms::Job*>& jobs, AvailabilityProfile base,
    const PlanOptions& options);

/// Scratch-reusing replan (see plan_jobs_into); the result is `out.table`.
void replan_all_into(const std::vector<const rms::Job*>& jobs,
                     const AvailabilityProfile& base, const PlanOptions& options,
                     Plan& out);

}  // namespace dbs::core
