// The incremental planning core: the persistent physical profile, the
// tail staircase and the keyed priority order must be invisible — every
// structure byte-identical to its from-scratch rebuild, every decision
// stream byte-identical to the from-scratch pipeline.
//
// The storm tests run paired BatchSystems over seeded random workloads
// with grant/release/failure churn: one with incremental planning plus
// check_invariants (which asserts profile and priority-order equality
// inside every iteration), one with the from-scratch path, and compare
// the full decision traces byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "batch/batch_system.hpp"
#include "core/availability_profile.hpp"
#include "core/backfill.hpp"
#include "core/fairshare.hpp"
#include "core/priority.hpp"
#include "core/tail_staircase.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "workload/synthetic.hpp"

namespace dbs::core {
namespace {

Time at(long s) { return Time::from_seconds(s); }

// --- AvailabilityProfile incremental primitives ---------------------------

TEST(IncrementalProfile, AdvanceOriginDropsPastBreakpoints) {
  AvailabilityProfile p(at(0), 64);
  p.subtract(at(10), at(20), 16);
  p.subtract(at(30), at(40), 32);
  p.advance_origin(at(25));
  EXPECT_EQ(p.origin(), at(25));
  EXPECT_EQ(p.free_at(at(25)), 64);
  EXPECT_EQ(p.free_at(at(35)), 32);
  const auto bps = p.breakpoints();
  ASSERT_FALSE(bps.empty());
  EXPECT_EQ(bps.front().first, at(25));
  // Advancing into the middle of a hold keeps its remainder.
  p.advance_origin(at(35));
  EXPECT_EQ(p.free_at(at(35)), 32);
  EXPECT_EQ(p.free_at(at(40)), 64);
  // Advancing to the current origin is a no-op.
  const AvailabilityProfile before = p;
  p.advance_origin(at(35));
  EXPECT_EQ(p, before);
}

TEST(IncrementalProfile, CoalesceMergesEqualRuns) {
  AvailabilityProfile p(at(0), 64);
  p.subtract(at(10), at(20), 16);
  p.add(at(10), at(20), 16);  // leaves two redundant breakpoints behind
  EXPECT_GT(p.step_count(), 1u);
  p.coalesce();
  EXPECT_EQ(p.step_count(), 1u);
  EXPECT_EQ(p, AvailabilityProfile(at(0), 64));
}

TEST(IncrementalProfile, EqualityIsStructural) {
  AvailabilityProfile a(at(0), 64);
  AvailabilityProfile b(at(0), 64);
  EXPECT_EQ(a, b);
  a.subtract(at(5), at(10), 8);
  EXPECT_NE(a, b);
  b.subtract(at(5), at(10), 8);
  EXPECT_EQ(a, b);
  AvailabilityProfile c(at(1), 64);
  EXPECT_NE(a, c);
}

TEST(IncrementalProfile, AppendFastPathMatchesGenericLayout) {
  // Same two disjoint holds, subtracted in append order (fast path twice)
  // and in reverse order (append, then a generic mid-vector insert); the
  // final representation must be identical, not just pointwise equal.
  AvailabilityProfile fwd(at(0), 64);
  fwd.subtract(at(10), at(20), 16);
  fwd.subtract(at(30), at(40), 8);
  AvailabilityProfile rev(at(0), 64);
  rev.subtract(at(30), at(40), 8);
  rev.subtract(at(10), at(20), 16);
  EXPECT_EQ(fwd, rev);
  const std::vector<std::pair<Time, CoreCount>> expected{
      {at(0), 64},  {at(10), 48}, {at(20), 64},
      {at(30), 56}, {at(40), 64}};
  EXPECT_EQ(fwd.breakpoints(), expected);
  for (long t : {0, 10, 15, 20, 30, 35, 40, 50})
    EXPECT_EQ(fwd.free_at(at(t)), rev.free_at(at(t))) << t;
}

TEST(IncrementalProfile, FarFutureSubtractUsesAppendPath) {
  AvailabilityProfile p(at(0), 64);
  p.subtract(at(0), Time::far_future(), 16);  // the down-node block shape
  EXPECT_EQ(p.free_at(at(0)), 48);
  EXPECT_EQ(p.min_free(at(0), at(1000000)), 48);
  p.add(at(0), Time::far_future(), 16);
  p.coalesce();
  EXPECT_EQ(p, AvailabilityProfile(at(0), 64));
}

// --- Tail staircase ---------------------------------------------------------

TEST(PlanCache, StaircaseAnswersMinFree) {
  AvailabilityProfile p(at(0), 64);
  p.subtract(at(0), at(100), 16);
  p.subtract(at(50), at(200), 8);
  p.subtract(at(300), at(400), 40);
  TailStaircase stairs;
  for (long now : {0, 60, 250}) {
    stairs.rebuild(p, at(now));
    for (long w : {1, 50, 100, 150, 200, 250, 300, 350, 400, 500})
      EXPECT_EQ(stairs.min_for(Duration::seconds(w)),
                p.min_free(at(now), at(now) + Duration::seconds(w)))
          << now << "+" << w;
  }
}

// --- Staircase tail walk differential -------------------------------------

TEST(PlanCacheDifferential, CachedTailMatchesUncachedWalk) {
  // A seeded sweep over queues that force a deep tail: wide jobs use up
  // the reservation budget early, narrow ones behind them can only
  // backfill or wait. Each seed re-plans its queue over several passes,
  // editing the base profile between them and keeping one staircase
  // across passes, as the scheduler keeps it across walks. Every pass
  // must plan exactly what the generic earliest-fit walk plans.
  constexpr CoreCount kCores = 64;
  std::uint64_t tail_backfills = 0;
  std::uint64_t tail_waits = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    const auto hold = [&](AvailabilityProfile& profile, Time after) {
      const Time from = after + Duration::seconds(pick(0, 3600));
      profile.subtract_clamped(from, from + Duration::minutes(pick(1, 180)),
                               static_cast<CoreCount>(pick(1, kCores)));
    };

    test::BareSystem sys(8, 8);
    std::vector<const rms::Job*> prioritized;
    Duration longest = Duration::zero();
    for (std::int64_t i = 0, n = pick(10, 60); i < n; ++i) {
      const auto cores = static_cast<CoreCount>(
          pick(0, 3) == 0 ? pick(33, kCores) : pick(1, 12));
      // One job in five runs longer than every job before it.
      const Duration wall = pick(0, 4) == 0
                                ? longest + Duration::minutes(pick(1, 90))
                                : Duration::minutes(pick(1, 120));
      longest = std::max(longest, wall);
      rms::JobSpec spec = test::spec("j" + std::to_string(i), cores, wall,
                                     i % 2 ? "alice" : "bob");
      spec.exclusive_priority = pick(0, 15) == 0;
      prioritized.push_back(&sys.server.job(
          sys.server.submit(std::move(spec), test::rigid(wall))));
    }

    AvailabilityProfile base(at(0), kCores);
    for (std::int64_t k = pick(0, 6); k > 0; --k) hold(base, at(0));

    TailStaircase staircase;
    Plan walked, generic;
    Time now = at(0);
    for (int pass = 0; pass < 6; ++pass) {
      // allow_backfill = false and drain_for_exclusive both bypass the
      // staircase; the sweep runs them too.
      const PlanOptions options{now,
                                static_cast<std::size_t>(pick(0, 4)),
                                /*allow_backfill=*/pick(0, 4) != 0,
                                /*drain_for_exclusive=*/pick(0, 4) == 0};
      plan_jobs_into(prioritized, base, options, walked, &staircase);
      plan_jobs_into(prioritized, base, options, generic, nullptr);
      const std::string where =
          "seed " + std::to_string(seed) + " pass " + std::to_string(pass);
      ASSERT_EQ(walked.table.items(), generic.table.items()) << where;
      ASSERT_EQ(walked.profile, generic.profile) << where;

      if (options.allow_backfill && !options.drain_for_exclusive) {
        std::size_t later = 0;
        for (const Reservation& r : walked.table.items()) {
          if (!r.start_now)
            ++later;
          else if (r.backfilled && later >= options.reservation_limit)
            ++tail_backfills;
        }
        if (later >= options.reservation_limit && later > 0)
          tail_waits += prioritized.size() - walked.table.items().size();
      }

      // Edit the profile between passes: a new hold, the clock moving on,
      // or a fresh base load.
      switch (pick(0, 2)) {
        case 0:
          hold(base, now);
          break;
        case 1:
          now = now + Duration::seconds(pick(1, 1800));
          if (pick(0, 1) == 0) base.advance_origin(now);
          break;
        default:
          base = AvailabilityProfile(now, kCores);
          for (std::int64_t k = pick(1, 6); k > 0; --k) hold(base, now);
      }
    }
  }
  // The sweep reached the tail: it planned backfills there and skipped
  // jobs that did not fit.
  EXPECT_GT(tail_backfills, 0u);
  EXPECT_GT(tail_waits, 0u);
}

// --- Keyed priority order differential -----------------------------------

TEST(KeyedPriorityOrder, MatchesFullSortUnderChurn) {
  test::BareSystem sys(1, 4);
  PriorityWeights weights;
  weights.queue_time_per_minute = 1.0;
  weights.xfactor = 5.0;  // short-walltime jobs overtake over time
  weights.per_core = 0.1;
  weights.cred = 2.0;
  weights.fairshare = 1.0;
  CredPriorities cred;
  cred.user["alice"] = 10.0;
  cred.user["bob"] = -5.0;
  FairshareConfig fs_cfg;
  fs_cfg.enabled = true;
  fs_cfg.user_targets["alice"] = 40.0;
  fs_cfg.user_targets["bob"] = 60.0;
  Fairshare fairshare(fs_cfg);
  // The weighted engine re-sorts almost every pass; under queue time alone
  // the queue's submission order already is priority order, except while
  // the exclusive job is queued.
  const PriorityEngine weighted(weights, cred, &fairshare);
  const PriorityEngine queue_time({}, {}, nullptr);
  std::vector<PriorityKey> keys;

  std::vector<JobId> ids;
  JobId exclusive_id;
  int submitted = 0;
  const auto submit = [&](Duration wall, CoreCount cores, const char* user,
                          bool exclusive = false) {
    // 64-core asks on a 4-core machine: jobs stay queued forever.
    rms::JobSpec s =
        test::spec("p" + std::to_string(submitted++), cores, wall, user);
    s.exclusive_priority = exclusive;
    return sys.server.submit(s, test::rigid(wall));
  };
  for (int i = 0; i < 24; ++i)
    ids.push_back(submit(Duration::minutes(2 + (i * 17) % 45), 64 + i % 3,
                         i % 3 ? "alice" : "bob"));

  int in_order = 0;
  int resorted = 0;
  int drained = 0;
  for (int pass = 0; pass < 30; ++pass) {
    const Time now = sys.sim.now();
    for (const PriorityEngine* engine : {&weighted, &queue_time}) {
      const std::vector<const rms::Job*>& queued = sys.server.jobs().queued();
      std::vector<const rms::Job*> keyed = queued;
      const bool drain = engine->order(keyed, now, keys);
      const std::vector<const rms::Job*> reference =
          engine->prioritize(queued, now);
      ASSERT_EQ(keyed, reference) << "pass " << pass;
      EXPECT_EQ(drain, reference.front()->spec().exclusive_priority)
          << "pass " << pass;
      ++(keyed == queued ? in_order : resorted);
      drained += drain ? 1 : 0;
    }

    // Churn: arrivals, cancels, usage that moves the fairshare term, an
    // exclusive job queued for a while, and enough time for xfactor drift
    // to reorder neighbours.
    if (pass % 3 == 0)
      ids.push_back(submit(Duration::minutes(1 + pass), 64, "bob"));
    if (pass % 4 == 1 && !ids.empty()) {
      sys.server.cancel(ids.back());
      ids.pop_back();
    }
    if (pass == 10)
      exclusive_id =
          submit(Duration::minutes(30), 64, "bob", /*exclusive=*/true);
    if (pass == 20) sys.server.cancel(exclusive_id);
    fairshare.record_usage({pass % 2 ? "alice" : "bob", "", "", "", ""},
                           600.0 * (pass % 5), now);
    sys.sim.run_until(now + Duration::minutes(7));
  }
  // Both regimes and both drain states must actually have been exercised.
  EXPECT_GT(in_order, 0);
  EXPECT_GT(resorted, 0);
  EXPECT_GT(drained, 0);
  EXPECT_LT(drained, in_order + resorted);
}

// --- Event-storm byte-identity --------------------------------------------

std::string drop_lines(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// One seeded storm: synthetic evolving workload plus node failures,
/// restores and cancels injected mid-run. check_invariants on the
/// incremental side asserts, inside every iteration, that the tracker
/// profile and the keyed priority order equal their rebuilds. Odd seeds
/// weigh xfactor, cores, a user priority and fairshare, so the keyed order
/// re-sorts; even seeds keep the queue-time-only default, under which the
/// submission order already is priority order.
std::string run_storm(std::uint64_t seed, bool incremental) {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 1 + seed % 4;
  cfg.scheduler.reservation_delay_depth = 1 + seed % 5;
  cfg.scheduler.allow_preemption = seed % 2 == 0;
  cfg.scheduler.allow_malleable_steal = seed % 3 == 0;
  cfg.scheduler.dynamic_partition_cores = (seed % 4 == 1) ? 8 : 0;
  cfg.scheduler.incremental_planning = incremental;
  cfg.scheduler.check_invariants = incremental;
  if (seed % 2 == 1) {
    cfg.scheduler.weights.xfactor = 10.0;
    cfg.scheduler.weights.per_core = 0.01;
    cfg.scheduler.weights.cred = 1.0;
    cfg.scheduler.cred_priorities.user["user1"] = 50.0;
    cfg.scheduler.weights.fairshare = 1.0;
    cfg.scheduler.fairshare.enabled = true;
    cfg.scheduler.fairshare.user_targets["user0"] = 30.0;
    cfg.scheduler.fairshare.user_targets["user2"] = 10.0;
  }

  wl::SyntheticParams wp;
  wp.job_count = 50;
  wp.total_cores = 64;
  wp.evolving_fraction = 0.5;
  wp.preemptible_fraction = cfg.scheduler.allow_preemption ? 0.4 : 0.0;
  wp.malleable_fraction = cfg.scheduler.allow_malleable_steal ? 0.4 : 0.0;
  wp.seed = 100 + seed;

  batch::BatchSystem sys(cfg);
  obs::Registry registry;
  std::ostringstream trace;
  obs::Tracer tracer;
  tracer.attach_stream(trace, obs::TraceFormat::Jsonl);
  sys.set_sinks({&tracer, &registry});
  sys.submit_workload(wl::generate_synthetic(wp));

  // Failure/restore churn on a rotating node, plus cancels of random jobs
  // (queued or running — both paths patch the tracker).
  const NodeId failing{seed % 8};
  sys.simulator().schedule_at(at(600 + static_cast<long>(seed) * 17), [&] {
    sys.server().node_failure(failing);
  });
  sys.simulator().schedule_at(at(1500 + static_cast<long>(seed) * 17), [&] {
    sys.server().restore_node(failing);
  });
  for (int k = 0; k < 4; ++k) {
    sys.simulator().schedule_at(
        at(400 + 500 * k + static_cast<long>(seed % 7) * 29), [&sys, k, seed] {
          sys.server().cancel(
              JobId{(seed * 7 + static_cast<std::uint64_t>(k) * 13) % 50});
        });
  }

  sys.run_until(Time::from_seconds(3 * 3600));
  tracer.close();
  return drop_lines(trace.str(), "wall_us");
}

class IncrementalStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalStorm, TraceIsByteIdenticalToRebuildPath) {
  const std::uint64_t seed = GetParam();
  EXPECT_EQ(run_storm(seed, true), run_storm(seed, false)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalStorm,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11));

}  // namespace
}  // namespace dbs::core
