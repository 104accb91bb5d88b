// Cache of tail StartNow verdicts for the planning walks.
//
// Once a planning walk has used up its reservation budget and somebody
// waits, every remaining job can only be planned as an immediate backfill
// (start == now) or skipped — and "fits now" depends only on the minimum
// free cores of the evolving plan profile over [now, now + walltime). The
// cache compresses that prefix-minimum into a small staircase of
// (window, min free) entries and versions it: a verdict computed against
// staircase version V is valid for every later walk whose staircase is
// byte-identical (version unchanged), which under low churn is almost all
// of them. Planning a backfill dirties the staircase (its minimum drops),
// so affected verdicts are recomputed and untouched ones survive — the
// per-job plan cache keyed by (job, profile-segment version).
//
// One instance, owned by the IterationContext, serves every walk of a
// pass (step 10, the admission re-plans, the start stage's re-plan when it
// needs one); plan_jobs_into takes it as an optional argument and the walk
// stays byte-identical to the uncached path (same planned set, same order,
// same profile mutations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::core {

class AvailabilityProfile;

struct PlanCache {
  /// One staircase entry: min_free holds for every window <= `window`
  /// (strictly below the next entry's). Windows are offsets from the plan's
  /// `now`, so a staircase is time-invariant across frozen-clock dry runs.
  struct MinStep {
    Duration window;
    CoreCount min_free;

    bool operator==(const MinStep& other) const {
      return window == other.window && min_free == other.min_free;
    }
  };

  /// Prefix-minimum staircase of the current plan profile from `now`:
  /// strictly decreasing min_free, strictly increasing window; the last
  /// entry covers every longer window.
  std::vector<MinStep> staircase;
  /// Version of `staircase`. Staircase contents are interned: rebuilding
  /// a staircase seen before (the steady-state case — each planned
  /// backfill cycles the walk through the same sequence every iteration)
  /// re-yields its original version, so verdicts stay valid across
  /// iterations, not just within one walk. 0 means "never built" (verdict
  /// slots are zero-initialized, so they never match a live version).
  std::uint64_t version = 0;
  /// Per-job verdict, indexed by slot() (dense job id minus the
  /// retirement base): (version << 1) | fits. Valid iff the stored
  /// version matches the current staircase version. Two slots per
  /// job (most-recent first): a system alternating between two states —
  /// a node flapping down/up, an oscillating base load — alternates
  /// between two staircase versions, and a single slot would miss on
  /// every pass exactly in the churn case the cache exists for.
  std::vector<std::uint64_t> verdicts;
  std::vector<std::uint64_t> verdicts_prev;

  /// Dense index of job `id` under the current retirement base.
  [[nodiscard]] std::size_t slot(std::uint64_t id) const {
    return static_cast<std::size_t>(id - base_);
  }

  /// Drops verdict slots below `min_live_id` (amortized by a chunked
  /// front-erase), bounding the arrays to O(live id range) during replays
  /// with job retirement. Ids below the floor must never be judged again.
  void advance_base(std::uint64_t min_live_id);
  [[nodiscard]] std::uint64_t base() const { return base_; }

  // Per-iteration effectiveness counters (reset by begin_iteration; summed
  // into IterationStats by the scheduler).
  std::uint64_t hits = 0;       ///< verdicts reused in O(1)
  std::uint64_t replanned = 0;  ///< jobs planned or re-judged this pass

  /// Rebuilds the staircase from `profile` (as seen from `now`) into
  /// scratch, compares with the stored one and bumps the version only on a
  /// real change.
  ///
  /// The rebuild truncates past the largest window any verdict has asked
  /// for (`note_window`): plan changes beyond that horizon — a rotating
  /// set of far-future StartLater reservations is the canonical case —
  /// cannot alter any tail verdict, so they must not cycle the version.
  /// Until the first note_window the staircase is kept in full.
  void refresh(const AvailabilityProfile& profile, Time now);

  /// Min free cores over [now, now + window); window > 0. Exact only for
  /// window <= valid_up_to_us (callers with a longer window must consult
  /// the plan profile directly, then note_window so the next refresh
  /// extends the horizon).
  [[nodiscard]] CoreCount min_for(Duration window) const;

  /// Records a queried window; widens the truncation horizon of future
  /// refreshes.
  void note_window(std::int64_t window_us) {
    if (window_us > max_window_us_) max_window_us_ = window_us;
  }

  /// Largest window (µs) the current staircase answers exactly.
  [[nodiscard]] std::int64_t valid_up_to_us() const { return valid_up_to_us_; }

  void reset_counters() {
    hits = 0;
    replanned = 0;
  }

 private:
  /// Interned staircases get stable versions; bounded — overflow clears
  /// the table and versions simply keep growing (never reused).
  static constexpr std::size_t kMaxInterned = 64;

  struct Interned {
    std::vector<MinStep> stairs;
    std::uint64_t version;
  };

  std::vector<MinStep> scratch_;
  std::vector<Interned> interned_;
  std::uint64_t next_version_ = 0;
  std::uint64_t base_ = 0;  ///< lowest job id verdict slot 0 maps to
  std::int64_t max_window_us_ = 0;  ///< largest window ever queried
  /// Horizon of the *current* staircase (see valid_up_to_us()).
  std::int64_t valid_up_to_us_ = std::numeric_limits<std::int64_t>::max();
};

}  // namespace dbs::core
