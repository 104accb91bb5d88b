// Per-stage unit tests: each pipeline stage is run against a hand-built
// PipelineEnv + IterationContext over a bare server (no scheduler), plus
// dry-run semantics through the full system façade.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.hpp"
#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "core/backfill.hpp"
#include "core/maui_scheduler.hpp"
#include "obs/registry.hpp"
#include "rms/decision.hpp"

namespace dbs::core {
namespace {

using batch::BatchSystem;
using batch::SystemConfig;

/// A bare server + cluster plus the long-lived engines stages need; tests
/// drive one stage at a time and inspect the context it leaves behind.
struct StageFixture {
  StageFixture() {
    cfg.reservation_depth = 2;
    cfg.reservation_delay_depth = 2;
    ctx.sinks.registry = &registry;  // the admission stage records into it
  }

  void begin(Time now) { ctx.begin_iteration(now, 1, /*dry_run=*/false); }

  JobId submit(const std::string& name, CoreCount cores,
               const std::string& user = "alice") {
    return sys.server.submit(test::spec(name, cores, Duration::minutes(10), user),
                             test::rigid(Duration::minutes(10)));
  }

  /// Starts an evolving job of `cores` that asks for `grow` more cores one
  /// minute in, and runs the simulation until the request is queued.
  JobId start_evolver(CoreCount cores, CoreCount grow) {
    auto app = std::make_unique<apps::ScriptedApp>(
        Duration::minutes(10),
        std::vector<apps::ScriptedApp::Step>{
            {Duration::minutes(1), grow, 0, 1.0, Duration::zero()}});
    const JobId id = sys.server.submit(
        test::spec("evo", cores, Duration::minutes(20)), std::move(app));
    EXPECT_TRUE(sys.server.start_job(id, false));
    sys.sim.run_until(Time::from_seconds(90));
    EXPECT_EQ(sys.server.jobs().dyn_requests().size(), 1u);
    return id;
  }

  /// Steps 2-24 (statistics skipped: fairshare is off in these tests).
  void run_through_admission() {
    GatherStage{}.run(env, ctx);
    PrioritizeStage{}.run(env, ctx);
    ClassifyStage{}.run(env, ctx);
    DynamicAdmissionStage{}.run(env, ctx);
  }

  test::BareSystem sys;  // 4 nodes x 8 cores
  SchedulerConfig cfg;
  Fairshare fairshare{cfg.fairshare};
  PriorityEngine priority{cfg.weights, cfg.cred_priorities, &fairshare};
  DfsEngine dfs{cfg.dfs};
  obs::Registry registry;
  IterationContext ctx{sys.server};
  PipelineEnv env{sys.server, cfg, fairshare, priority, dfs};
};

TEST(PipelineStages, StageNamesMatchAlgorithmOrder) {
  const auto& names = stage_names();
  ASSERT_EQ(names.size(), kStageCount);
  EXPECT_EQ(names[0], "gather");
  EXPECT_EQ(names[1], "statistics");
  EXPECT_EQ(names[2], "prioritize");
  EXPECT_EQ(names[3], "classify");
  EXPECT_EQ(names[4], "admission");
  EXPECT_EQ(names[5], "start_backfill");
}

TEST(PipelineStages, GatherSnapshotsClusterAndRequestState) {
  StageFixture f;
  const JobId running = f.submit("run", 8);
  ASSERT_TRUE(f.sys.server.start_job(running, false));
  f.submit("queued", 4);
  f.begin(Time::epoch());

  GatherStage gather;
  gather.run(f.env, f.ctx);

  EXPECT_EQ(f.ctx.physical_free, 24);
  EXPECT_EQ(f.ctx.physical.capacity(), 32);
  EXPECT_TRUE(f.ctx.requests.empty());
  EXPECT_EQ(f.ctx.stats.eligible_dynamic, 0u);
  // The planning profile mirrors the physical one when no dynamic
  // partition is configured.
  EXPECT_EQ(f.ctx.planning.capacity(), f.ctx.physical.capacity());
}

TEST(PipelineStages, StatisticsChargesRunningUsageIntoFairshare) {
  StageFixture f;
  f.cfg.fairshare.enabled = true;
  f.cfg.fairshare.user_targets["alice"] = 50.0;
  f.fairshare = Fairshare(f.cfg.fairshare);
  const JobId running = f.submit("run", 8);
  ASSERT_TRUE(f.sys.server.start_job(running, false));

  StatisticsStage statistics(Time::epoch());
  f.begin(Time::from_seconds(100));
  statistics.run(f.env, f.ctx);
  // 8 cores for 100 s.
  EXPECT_DOUBLE_EQ(f.fairshare.effective_usage("alice"), 800.0);

  // The second pass charges only the delta since the first.
  f.begin(Time::from_seconds(150));
  statistics.run(f.env, f.ctx);
  EXPECT_DOUBLE_EQ(f.fairshare.effective_usage("alice"), 1200.0);
}

TEST(PipelineStages, PrioritizeOrdersQueueAndAppliesPerUserCap) {
  StageFixture f;
  f.submit("a1", 4, "alice");
  f.submit("a2", 4, "alice");
  f.submit("b1", 4, "bob");

  f.begin(Time::epoch());
  PrioritizeStage prioritize;
  prioritize.run(f.env, f.ctx);
  EXPECT_EQ(f.ctx.prioritized.size(), 3u);
  EXPECT_EQ(f.ctx.stats.eligible_static, 3u);
  EXPECT_FALSE(f.ctx.drain);

  f.cfg.max_eligible_per_user = 1;
  f.begin(Time::epoch());
  prioritize.run(f.env, f.ctx);
  ASSERT_EQ(f.ctx.prioritized.size(), 2u);  // first of alice, first of bob
  EXPECT_EQ(f.ctx.prioritized[0]->spec().name, "a1");
  EXPECT_EQ(f.ctx.prioritized[1]->spec().name, "b1");
}

TEST(PipelineStages, PrioritizeDetectsExclusivePriorityDrain) {
  StageFixture f;
  rms::JobSpec z = test::spec("z", 32, Duration::minutes(10));
  z.exclusive_priority = true;
  f.sys.server.submit(std::move(z), test::rigid(Duration::minutes(10)));
  f.begin(Time::epoch());
  PrioritizeStage prioritize;
  prioritize.run(f.env, f.ctx);
  EXPECT_TRUE(f.ctx.drain);
}

TEST(PipelineStages, ClassifySplitsStartNowFromStartLater) {
  StageFixture f;
  f.submit("fits", 32);     // fills the empty machine: StartNow
  f.submit("waits", 8);     // must wait for "fits": StartLater
  f.begin(Time::epoch());

  GatherStage gather;
  PrioritizeStage prioritize;
  ClassifyStage classify;
  gather.run(f.env, f.ctx);
  prioritize.run(f.env, f.ctx);
  classify.run(f.env, f.ctx);

  EXPECT_EQ(f.ctx.baseline_plan.table.start_now_count(), 1u);
  EXPECT_EQ(f.ctx.baseline_plan.table.start_later_count(), 1u);
  // The protected set is the StartNow job plus the delayed job (depth 2).
  EXPECT_EQ(f.ctx.protected_jobs.size(), 2u);
  EXPECT_EQ(f.ctx.measure_opts.now, Time::epoch());
  EXPECT_EQ(f.ctx.measure_opts.reservation_limit, f.cfg.delay_plan_depth());
}

/// One Start or Reserve decision: "start <job>" or "reserve <job> at <µs>".
std::string decision_line(bool start, JobId job, Time at) {
  std::string line = start ? "start " : "reserve ";
  line += std::to_string(job.value());
  if (!start) line += " at " + std::to_string(at.as_micros());
  return line;
}

/// A plan as the start stage would emit it, in plan order.
std::vector<std::string> plan_lines(const ReservationTable& table) {
  std::vector<std::string> lines;
  for (const Reservation& r : table.items())
    lines.push_back(decision_line(r.start_now, r.job->id(), r.start));
  return lines;
}

/// The Start and Reserve decisions the pass emitted, in order.
std::vector<std::string> start_lines(const IterationContext& ctx) {
  std::vector<std::string> lines;
  for (const rms::Decision& d : ctx.applier.decisions()) {
    if (d.kind == rms::DecisionKind::StartJob ||
        d.kind == rms::DecisionKind::Reserve)
      lines.push_back(decision_line(d.kind == rms::DecisionKind::StartJob,
                                    d.job, d.start));
  }
  return lines;
}

/// A fresh, uncached walk at ReservationDepth over the context's current
/// planning profile and priority order: what the start stage must emit.
std::vector<std::string> fresh_start_plan(const StageFixture& f) {
  const PlanOptions opts{f.ctx.now, f.cfg.reservation_depth,
                         f.cfg.enable_backfill && !f.ctx.drain, f.ctx.drain};
  return plan_lines(plan_jobs(f.ctx.prioritized, f.ctx.planning, opts).table);
}

TEST(SingleWalk, EqualDepthsStartStep10PlanWithoutWalkingAgain) {
  StageFixture f;  // ReservationDepth == ReservationDelayDepth == 2
  f.submit("a", 24);  // StartNow
  f.submit("b", 16);  // StartLater #1, behind a
  f.submit("c", 8);   // backfills into a's last 8 cores
  f.submit("d", 16);  // StartLater #2
  f.submit("e", 8);   // past the budget: tail verdict, does not fit
  f.begin(Time::epoch());
  f.run_through_admission();
  const std::vector<std::string> step10 = plan_lines(f.ctx.baseline_plan.table);
  ASSERT_EQ(step10.size(), 4u);
  // Every prioritized job was judged once, by the step-10 walk.
  EXPECT_EQ(f.ctx.staircase.replanned, f.ctx.prioritized.size());

  StartBackfillStage{}.run(f.env, f.ctx);
  EXPECT_FALSE(f.ctx.admission_changed_plan);
  EXPECT_EQ(f.ctx.staircase.replanned, f.ctx.prioritized.size());
  EXPECT_EQ(start_lines(f.ctx), step10);
  EXPECT_EQ(f.ctx.stats.started, 2u);
  EXPECT_EQ(f.ctx.stats.backfilled, 1u);
  EXPECT_EQ(f.ctx.stats.reservations, 2u);
}

TEST(SingleWalk, GrantForcesReplanOnPostGrantProfile) {
  StageFixture f;
  f.start_evolver(8, 8);
  f.submit("q", 24, "bob");  // fits the 24 idle cores until the grant
  f.begin(f.sys.sim.now());
  GatherStage{}.run(f.env, f.ctx);
  PrioritizeStage{}.run(f.env, f.ctx);
  ClassifyStage{}.run(f.env, f.ctx);
  const std::vector<std::string> step10 = plan_lines(f.ctx.baseline_plan.table);
  DynamicAdmissionStage{}.run(f.env, f.ctx);
  ASSERT_EQ(f.ctx.stats.dyn_granted, 1u);
  EXPECT_TRUE(f.ctx.admission_changed_plan);
  const std::vector<std::string> expected = fresh_start_plan(f);
  // The grant left 16 idle cores: q now waits, where step 10 started it.
  EXPECT_NE(expected, step10);

  StartBackfillStage{}.run(f.env, f.ctx);
  EXPECT_EQ(start_lines(f.ctx), expected);
  EXPECT_EQ(f.ctx.stats.started, 0u);
  EXPECT_EQ(f.ctx.stats.start_failed, 0u);
  EXPECT_EQ(f.ctx.stats.reservations, 1u);
}

/// A malleable steal or a preemption frees cores for a request that DFS
/// then rejects: no grant, yet admission changed the start stage's inputs.
class SingleWalkFreeCores : public ::testing::TestWithParam<bool> {};

TEST_P(SingleWalkFreeCores, StealOrPreemptionWithoutGrantForcesReplan) {
  const bool preempt = GetParam();
  StageFixture f;
  f.cfg.allow_preemption = preempt;
  f.cfg.allow_malleable_steal = !preempt;
  // bob's queued jobs may not be delayed by anyone else's dynamic request.
  f.cfg.dfs.policy = DfsPolicy::SingleJobDelay;
  f.cfg.dfs.user["bob"].delay_perm = false;
  f.dfs = DfsEngine(f.cfg.dfs);

  rms::JobSpec victim =
      test::spec("victim", 24, Duration::minutes(10), "carol");
  victim.preemptible = true;
  victim.malleable_min = 8;
  const JobId victim_id =
      f.sys.server.submit(victim, test::rigid(Duration::minutes(10)));
  ASSERT_TRUE(f.sys.server.start_job(victim_id, /*backfilled=*/true));
  f.start_evolver(8, 16);  // the machine is full: the request needs cores
  f.submit("waits", 16, "bob");
  f.begin(f.sys.sim.now());
  f.run_through_admission();
  const std::uint64_t walked = f.ctx.staircase.replanned;

  EXPECT_EQ(f.ctx.stats.dyn_granted, 0u);
  EXPECT_EQ(f.ctx.stats.dyn_rejected, 1u);
  EXPECT_EQ(f.ctx.stats.preempted, preempt ? 1u : 0u);
  EXPECT_EQ(f.ctx.stats.malleable_shrinks, preempt ? 0u : 1u);
  EXPECT_TRUE(f.ctx.admission_changed_plan);
  const std::vector<std::string> expected = fresh_start_plan(f);

  StartBackfillStage{}.run(f.env, f.ctx);
  EXPECT_GT(f.ctx.staircase.replanned, walked);  // the stage re-planned
  EXPECT_EQ(start_lines(f.ctx), expected);
  EXPECT_GE(f.ctx.stats.started, 1u);  // the freed cores are used at once
}

INSTANTIATE_TEST_SUITE_P(StealAndPreempt, SingleWalkFreeCores,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Preemption"
                                              : "MalleableSteal";
                         });

TEST(SingleWalk, DeeperDelayDepthReplansAtReservationDepth) {
  StageFixture f;
  f.cfg.reservation_depth = 1;
  f.cfg.reservation_delay_depth = 3;
  f.submit("a", 32);  // fills the machine: every other job waits
  f.submit("b", 8);
  f.submit("c", 8);
  f.submit("d", 8);
  f.begin(Time::epoch());
  f.run_through_admission();
  EXPECT_EQ(f.ctx.baseline_plan.table.start_later_count(), 3u);
  EXPECT_FALSE(f.ctx.admission_changed_plan);
  const std::vector<std::string> expected = fresh_start_plan(f);

  StartBackfillStage{}.run(f.env, f.ctx);
  EXPECT_EQ(f.ctx.stats.reservations, 1u);
  EXPECT_EQ(start_lines(f.ctx), expected);
}

SystemConfig small_config() {
  SystemConfig c;
  c.cluster.node_count = 2;
  c.cluster.cores_per_node = 8;
  c.scheduler.reservation_depth = 2;
  c.scheduler.reservation_delay_depth = 2;
  return c;
}

TEST(DryRunIteration, RecordsDecisionsWithoutApplyingThem) {
  BatchSystem sys(small_config());
  // Fill the machine, then queue a job that must wait.
  sys.submit_now(test::spec("fill", 16, Duration::minutes(10)),
                 test::rigid(Duration::minutes(10)));
  sys.submit_at(Time::from_seconds(5), test::spec("waits", 16, Duration::minutes(5)),
                [] { return test::rigid(Duration::minutes(5)); });
  sys.run_until(Time::from_seconds(30));

  ASSERT_EQ(sys.server().jobs().queued().size(), 1u);
  const std::uint64_t iterations_before = sys.scheduler().iterations();

  const std::vector<rms::Decision> decisions =
      sys.scheduler().dry_run_iteration();

  // The waiting job shows up as a reservation in the stream.
  ASSERT_FALSE(decisions.empty());
  bool reserved_waiting = false;
  for (const rms::Decision& d : decisions)
    if (d.kind == rms::DecisionKind::Reserve && d.cores == 16)
      reserved_waiting = true;
  EXPECT_TRUE(reserved_waiting);

  // Nothing was applied: same queue, same iteration count, and the run
  // completes exactly as if the dry-run had never happened.
  EXPECT_EQ(sys.server().jobs().queued().size(), 1u);
  EXPECT_EQ(sys.scheduler().iterations(), iterations_before);
  sys.run();
  for (const auto& rec : sys.recorder().records())
    EXPECT_TRUE(rec.completed());
}

TEST(DryRunIteration, EmptySystemEmitsNoDecisions)
{
  BatchSystem sys(small_config());
  EXPECT_TRUE(sys.scheduler().dry_run_iteration().empty());
}

TEST(PipelineMetrics, StageTimingsCoverEveryStage) {
  SystemConfig c = small_config();
  c.scheduler.stage_timing = true;
  BatchSystem sys(c);
  obs::Registry registry;
  sys.set_sinks({nullptr, &registry});
  sys.submit_now(test::spec("a", 8, Duration::minutes(1)),
                 test::rigid(Duration::minutes(1)));
  sys.run();

  ASSERT_GE(sys.scheduler().iterations(), 1u);
  const IterationStats& last = sys.scheduler().last_stats();
  double stage_sum = 0.0;
  for (double us : last.stage_wall_us) {
    EXPECT_GE(us, 0.0);
    stage_sum += us;
  }
  // Stage spans are measured inside the iteration span.
  EXPECT_LE(stage_sum, last.wall_us + 1e-6);

  for (std::string_view stage : stage_names()) {
    const obs::Histogram* h = registry.find_histogram(
        std::string("scheduler.stage_iteration_us.") + std::string(stage));
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_EQ(h->count(), sys.scheduler().iterations()) << stage;
  }
}

TEST(PipelineMetrics, IterationHistogramsResolveSubMicrosecondValues) {
  // Iterations take a few microseconds and stages a fraction of one, so
  // the buckets must start well below a microsecond and step finely up
  // to 10 ms, or every reported quantile interpolates inside one bucket.
  BatchSystem sys(small_config());
  obs::Registry registry;
  sys.set_sinks({nullptr, &registry});
  sys.submit_now(test::spec("a", 8, Duration::minutes(1)),
                 test::rigid(Duration::minutes(1)));
  sys.run();

  const obs::Histogram* h = registry.find_histogram("scheduler.iteration_us");
  ASSERT_NE(h, nullptr);
  const std::vector<double>& bounds = h->upper_bounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_LE(bounds.front(), 0.025);
  EXPECT_GE(bounds.back(), 10000.0);
  for (std::size_t i = 1; i < bounds.size() && bounds[i - 1] < 10000.0; ++i)
    EXPECT_LE(bounds[i] / bounds[i - 1], 2.5 + 1e-9) << bounds[i];
}

TEST(SingleWalk, IterationCountsEachPrioritizedJobOnce) {
  SystemConfig c = small_config();
  c.cluster.node_count = 4;
  BatchSystem sys(c);
  // The same queue as EqualDepthsStartStep10PlanWithoutWalkingAgain, all
  // submitted before the first iteration.
  for (const CoreCount cores : {24, 16, 8, 16, 8})
    sys.submit_now(test::spec("j", cores, Duration::minutes(10)),
                   test::rigid(Duration::minutes(10)));
  sys.run_until(Time::from_seconds(1));

  ASSERT_GE(sys.scheduler().history().size(), 1u);
  const IterationStats& first = sys.scheduler().history()[0];
  EXPECT_EQ(first.eligible_static, 5u);
  EXPECT_EQ(first.started, 2u);
  EXPECT_EQ(first.reservations, 2u);
  // One walk per pass: five jobs, five verdicts.
  EXPECT_EQ(first.replanned_jobs, 5u);
}

TEST(PipelineHistory, HistoryIsCappedAtKHistoryCap) {
  // The cap itself (4096 iterations) is too slow to exercise end-to-end
  // here; assert the contract on the structure instead: history holds one
  // entry per iteration and is bounded by kHistoryCap.
  BatchSystem sys(small_config());
  sys.submit_now(test::spec("a", 8, Duration::minutes(1)),
                 test::rigid(Duration::minutes(1)));
  sys.run();
  EXPECT_EQ(sys.scheduler().history().size(),
            std::min<std::size_t>(sys.scheduler().iterations(),
                                  MauiScheduler::kHistoryCap));
  EXPECT_EQ(sys.scheduler().history().back().at,
            sys.scheduler().last_stats().at);
}

}  // namespace
}  // namespace dbs::core
