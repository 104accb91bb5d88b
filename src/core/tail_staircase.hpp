// The staircase the planning walks judge their tail by.
//
// Once a planning walk has used up its reservation budget and somebody
// waits, every remaining job can only be planned as an immediate backfill
// (start == now) or skipped, and "fits now" depends only on the minimum
// free cores of the evolving plan profile over [now, now + walltime). The
// staircase compresses that prefix minimum into a few (window, min free)
// entries, so each tail job is judged by one binary search instead of an
// earliest-fit walk over the profile. A planned backfill lowers the
// minimum, so the walk rebuilds the staircase after each one.
//
// One instance, owned by the IterationContext, serves every walk of a
// pass (step 10, the admission re-plans, the start stage's re-plan when it
// needs one); plan_jobs_into takes it as an optional argument and the walk
// stays byte-identical to the generic path (same planned set, same order,
// same profile mutations).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::core {

class AvailabilityProfile;

struct TailStaircase {
  /// One staircase entry: min_free holds for every window <= `window`
  /// (strictly above the previous entry's). Windows are offsets from the
  /// plan's `now`.
  struct MinStep {
    Duration window;
    CoreCount min_free;
  };

  /// Prefix-minimum staircase of the plan profile from `now`: strictly
  /// decreasing min_free, strictly increasing window; the last entry
  /// covers every longer window.
  std::vector<MinStep> steps;

  /// Jobs the walks of this pass planned or judged (reset by
  /// begin_iteration; summed into IterationStats by the scheduler).
  std::uint64_t replanned = 0;

  /// Rebuilds `steps` from `profile` as seen from `now`.
  void rebuild(const AvailabilityProfile& profile, Time now);

  /// Min free cores over [now, now + window); window > 0.
  [[nodiscard]] CoreCount min_for(Duration window) const;
};

}  // namespace dbs::core
