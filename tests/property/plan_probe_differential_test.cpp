// Differential test: the protected set and the measured delays read off a
// plan by walking it in order must equal what the lookup-based reference
// (reference_plan_probe.hpp) finds by looking each job up. Seeded random
// queues in shuffled (not id) order, running holds, reservation and delay
// depths from 0 to 20, the drain and backfill options, and the request
// loop of the admission stage: a grant adopts the replanned baseline and
// keeps the protected set; a malleable steal or a preemption re-plans the
// queue (a preempted job rejoins it) and recomputes the set.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.hpp"
#include "common/rng.hpp"
#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"
#include "core/tail_staircase.hpp"
#include "reference_plan_probe.hpp"

namespace dbs::core {
namespace {

constexpr CoreCount kCores = 64;

Time at(std::int64_t s) { return Time::from_seconds(s); }

/// A running job's hold on the planning profile.
struct Hold {
  Time until;
  CoreCount cores;
};

struct Scenario {
  explicit Scenario(std::uint64_t seed) : rng(seed) {}

  std::int64_t pick(std::int64_t lo, std::int64_t hi) {
    return rng.next_int(lo, hi);
  }

  const rms::Job* new_job() {
    const std::int64_t size = pick(0, 39);
    const auto cores = static_cast<CoreCount>(
        size == 0   ? pick(kCores + 1, kCores + 16)  // never fits
        : size < 10 ? pick(kCores / 2 + 1, kCores)
                    : pick(1, 12));
    const Duration wall = Duration::minutes(pick(1, 120));
    rms::JobSpec spec = test::spec("j" + std::to_string(next_id), cores, wall);
    spec.exclusive_priority = pick(0, 15) == 0;
    storage.push_back(std::make_unique<rms::Job>(
        JobId{next_id++}, spec, test::rigid(wall), Time::epoch()));
    return storage.back().get();
  }

  /// The planning profile of the current holds, and its idle cores now.
  void rebuild_planning() {
    planning.reset(at(0), kCores);
    for (const Hold& h : holds)
      planning.subtract_clamped(at(0), h.until, h.cores);
    physical_free = planning.free_at(at(0));
  }

  Rng rng;
  std::vector<std::unique_ptr<rms::Job>> storage;
  std::uint64_t next_id = 1;
  std::vector<Hold> holds;
  AvailabilityProfile planning{at(0), kCores};
  CoreCount physical_free = 0;
};

std::string describe(const std::vector<const rms::Job*>& jobs) {
  std::string out;
  for (const rms::Job* job : jobs)
    out += std::to_string(job->id().value()) + ' ';
  return out;
}

TEST(PlanProbeDifferential, WalksAgreeWithLookups) {
  std::size_t measured = 0;
  std::size_t after_grant = 0;
  std::size_t grants = 0;
  std::size_t replans = 0;
  std::size_t later_protected = 0;
  std::size_t negative = 0;
  std::size_t kept_set_differs = 0;

  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Scenario s(seed);
    std::vector<const rms::Job*> prioritized;
    for (std::int64_t i = s.pick(0, 40); i > 0; --i)
      prioritized.push_back(s.new_job());
    // Priority order is not id order: shuffle.
    for (std::size_t i = prioritized.size(); i > 1; --i)
      std::swap(prioritized[i - 1],
                prioritized[static_cast<std::size_t>(
                    s.pick(0, static_cast<std::int64_t>(i) - 1))]);
    for (std::int64_t k = s.pick(0, 6); k > 0; --k)
      s.holds.push_back(Hold{at(60 * s.pick(1, 180)),
                             static_cast<CoreCount>(s.pick(1, kCores / 2))});
    s.rebuild_planning();

    const auto delay_depth = static_cast<std::size_t>(s.pick(0, 20));
    const auto reservation_depth = static_cast<std::size_t>(s.pick(0, 5));
    const bool has_exclusive = std::any_of(
        prioritized.begin(), prioritized.end(),
        [](const rms::Job* j) { return j->spec().exclusive_priority; });
    const bool drain = has_exclusive && s.pick(0, 1) == 0;
    const PlanOptions opts{at(0), std::max(reservation_depth, delay_depth),
                           !drain && s.pick(0, 3) != 0, drain};
    TailStaircase staircase;
    TailStaircase* stairs = s.pick(0, 1) == 0 ? &staircase : nullptr;

    Plan baseline;
    std::vector<const rms::Job*> protected_jobs;
    std::vector<const rms::Job*> reference_set;
    const auto plan_and_protect = [&](const std::string& where) {
      plan_jobs_into(prioritized, s.planning, opts, baseline, stairs);
      protected_subset_into(baseline.table, delay_depth, protected_jobs);
      testing::reference_protected_subset_into(prioritized, baseline.table,
                                               delay_depth, reference_set);
      ASSERT_EQ(protected_jobs, reference_set)
          << where << ": walked " << describe(protected_jobs)
          << "looked up " << describe(reference_set);
      for (const rms::Job* job : protected_jobs)
        if (!test::reservation_of(baseline.table, job->id())->start_now)
          ++later_protected;
    };
    ASSERT_NO_FATAL_FAILURE(plan_and_protect("seed " + std::to_string(seed)));

    MeasureScratch scratch;
    DelayMeasurement m;
    bool granted_before = false;
    for (std::int64_t round = s.pick(1, 8); round > 0; --round) {
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const DynHold hold{static_cast<CoreCount>(s.pick(1, 16)), at(0),
                         at(60 * s.pick(1, 240))};
      measure_dynamic_request_into(hold, protected_jobs, baseline.table,
                                   s.planning, s.physical_free, opts, nullptr,
                                   scratch, m);
      const testing::ReferenceMeasurement ref = testing::reference_measure(
          hold, prioritized, protected_jobs, baseline.table, s.planning,
          s.physical_free, opts);
      ASSERT_EQ(m.feasible, ref.feasible) << where;
      if (m.feasible) {
        ++measured;
        if (granted_before) ++after_grant;
        ASSERT_EQ(baseline.table.size(), ref.replanned_jobs) << where;
        ASSERT_EQ(m.replanned.items(), ref.replanned.items()) << where;
        ASSERT_EQ(m.delays.size(), ref.delays.size()) << where;
        for (std::size_t i = 0; i < m.delays.size(); ++i) {
          ASSERT_EQ(m.delays[i].job, ref.delays[i].job) << where << " #" << i;
          ASSERT_EQ(m.delays[i].delay, ref.delays[i].delay)
              << where << " #" << i;
          if (m.delays[i].delay < Duration::zero()) ++negative;
        }
      }

      switch (s.pick(0, 2)) {
        case 0:  // grant: adopt the replanned baseline, keep the set
          if (!m.feasible) break;
          s.holds.push_back(Hold{hold.until, hold.extra_cores});
          s.physical_free -= hold.extra_cores;
          std::swap(s.planning, m.profile_after);
          std::swap(baseline.table, m.replanned);
          granted_before = true;
          ++grants;
          if (protected_subset(baseline.table, delay_depth) != protected_jobs)
            ++kept_set_differs;
          break;
        case 1: {  // steal or preemption: free cores, re-plan, new set
          if (s.holds.empty()) break;
          const auto victim = static_cast<std::size_t>(
              s.pick(0, static_cast<std::int64_t>(s.holds.size()) - 1));
          if (s.pick(0, 1) == 0 && s.holds[victim].cores > 1) {
            s.holds[victim].cores /= 2;  // malleable shrink
          } else {
            s.holds.erase(s.holds.begin() +
                          static_cast<std::ptrdiff_t>(victim));
            // The preempted job is requeued and re-prioritized.
            const auto slot = static_cast<std::ptrdiff_t>(
                s.pick(0, static_cast<std::int64_t>(prioritized.size())));
            prioritized.insert(prioritized.begin() + slot, s.new_job());
          }
          s.rebuild_planning();
          ASSERT_NO_FATAL_FAILURE(plan_and_protect(where + " re-plan"));
          granted_before = false;
          ++replans;
          break;
        }
        default:  // rejected: nothing changes
          break;
      }
    }
  }

  // Every path was taken, often.
  EXPECT_GT(measured, 500u);
  EXPECT_GT(after_grant, 100u);
  EXPECT_GT(grants, 200u);
  EXPECT_GT(replans, 200u);
  EXPECT_GT(later_protected, 200u);
  EXPECT_GT(negative, 0u);
  EXPECT_GT(kept_set_differs, 0u);
}

}  // namespace
}  // namespace dbs::core
