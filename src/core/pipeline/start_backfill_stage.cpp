#include "core/pipeline/stages.hpp"

#include "common/assert.hpp"
#include "core/backfill.hpp"
#include "core/dfs_engine.hpp"
#include "core/scheduler_config.hpp"
#include "obs/tracer.hpp"

namespace dbs::core {

void start_backfill(IterationContext& ctx) {
  const PlanOptions start_opts{ctx.now, ctx.config.reservation_depth,
                               ctx.config.enable_backfill && !ctx.drain,
                               ctx.drain};
  // Step 10 walked the same jobs over the same profile. Unless it planned
  // deeper (ReservationDelayDepth > ReservationDepth) or admission changed
  // one of its inputs, its plan is exactly the start plan: reuse it.
  const bool replan =
      ctx.admission_changed_plan ||
      ctx.measure_opts.reservation_limit != start_opts.reservation_limit;
  if (replan) {
    plan_jobs_into(ctx.prioritized, ctx.planning, start_opts, ctx.baseline_plan,
                   ctx.config.incremental_planning ? &ctx.staircase : nullptr);
  } else if (ctx.config.check_invariants) {
    DBS_REQUIRE(ctx.baseline_plan.table.items() ==
                    plan_jobs(ctx.prioritized, ctx.planning, start_opts)
                        .table.items(),
                "reused step-10 plan diverged from a fresh start walk");
  }
  for (const Reservation& r : ctx.baseline_plan.table.items()) {
    const JobId job = r.job->id();
    if (!r.start_now) {
      ctx.applier.reserve(job, r.cores, r.start);
      ++ctx.stats.reservations;
      continue;
    }
    // The aggregate plan can be defeated by node-level fragmentation
    // (chunked placement); the job then simply stays queued and is
    // re-planned next iteration — exactly what a real Maui does when the
    // node allocation it asked Torque for cannot be built.
    if (!ctx.applier.start_job(job, r.backfilled)) {
      ++ctx.stats.start_failed;
      continue;
    }
    if (!ctx.applier.dry_run()) ctx.dfs.on_job_started(job);
    ++ctx.stats.started;
    if (r.backfilled) {
      ++ctx.stats.backfilled;
      DBS_TRACE_EVENT(ctx.sinks.tracer, obs::TraceEvent(ctx.now, "sched",
                                                        "backfill")
                                            .field("job", job.value()));
    }
  }
}

}  // namespace dbs::core
