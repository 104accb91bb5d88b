#include "core/pipeline/dynamic_admission_stage.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"
#include "core/dfs_engine.hpp"
#include "core/malleable.hpp"
#include "core/negotiation.hpp"
#include "core/physical_profile.hpp"
#include "core/preemption.hpp"
#include "core/pipeline/prioritize_stage.hpp"
#include "core/priority.hpp"
#include "core/scheduler_config.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace dbs::core {

namespace {

/// Fixed buckets for the delay-measurement depth (protected jobs touched
/// per measured dynamic request).
const std::vector<double>& measure_depth_bounds() {
  static const std::vector<double> bounds{0, 1, 2, 4, 8, 16, 32, 64, 128};
  return bounds;
}

}  // namespace

void DynamicAdmissionStage::run(PipelineEnv& env, IterationContext& ctx) {
  const Time now = ctx.now;
  obs::Tracer* tracer = ctx.sinks.tracer;
  ReservationTable& baseline = ctx.baseline_plan.table;
  DelayMeasurement& m = ctx.measure;

  for (const rms::DynRequest& req : ctx.requests) {
    // A preemption earlier in this loop may have requeued the owner and
    // removed its request from the FIFO; skip such stale entries.
    const rms::DynRequest* live = env.server.jobs().dyn_request_of(req.job);
    if (live == nullptr || live->id != req.id) continue;
    const rms::Job& owner = env.server.job(req.job);
    DBS_ASSERT(owner.state() == rms::JobState::DynQueued,
               "FIFO entry for a job that is not dynqueued");
    const DynHold hold = make_hold(owner, req, now);
    measure_dynamic_request_into(hold, ctx.protected_jobs, baseline,
                                 ctx.planning, ctx.physical_free,
                                 ctx.measure_opts, tracer, ctx.measure_scratch,
                                 m);
    obs::lazy_histogram(*ctx.sinks.registry, ctx.measure_depth,
                        "scheduler.delay_measure_depth", measure_depth_bounds())
        .observe(static_cast<double>(m.delays.size()));

    // After a steal or preemption freed `freed` cores: resync the idle
    // count, re-plan on the patched profile and re-measure the request.
    // Preempted victims are requeued, so they are re-prioritized too.
    const auto remeasure = [&](CoreCount freed, bool requeued) {
      ctx.admission_changed_plan = true;
      // Live mode resyncs from the cluster; dry-run simulates the same
      // ledger arithmetically (the victims free exactly `freed` cores).
      ctx.physical_free = ctx.applier.dry_run()
                              ? ctx.physical_free + freed
                              : env.server.cluster().free_cores();
      ctx.rebuild_planning_profile(env.config.dynamic_partition_cores);
      // The drain flag stays as steps 6-9 set it: a victim was backfilled,
      // and nothing backfills while an exclusive job is queued.
      if (requeued) prioritize_eligible(env, ctx);
      plan_jobs_into(
          ctx.prioritized, ctx.planning, ctx.measure_opts, ctx.baseline_plan,
          env.config.incremental_planning ? &ctx.staircase : nullptr);
      protected_subset_into(baseline, env.config.reservation_delay_depth,
                            ctx.protected_jobs);
      measure_dynamic_request_into(hold, ctx.protected_jobs, baseline,
                                   ctx.planning, ctx.physical_free,
                                   ctx.measure_opts, tracer,
                                   ctx.measure_scratch, m);
    };

    // Optional §II-B strategy (gentle): free cores by shrinking running
    // malleable jobs toward their minimum — no progress is lost.
    if (!m.feasible && env.config.allow_malleable_steal) {
      const std::vector<MalleableShrink> shrinks =
          plan_malleable_steal(env.server.jobs().running(), req.extra_cores,
                               ctx.physical_free, req.job);
      if (!shrinks.empty()) {
        CoreCount freed = 0;
        for (const MalleableShrink& s : shrinks) {
          DBS_TRACE_EVENT(tracer,
                          obs::TraceEvent(now, "sched", "malleable_steal")
                              .field("for_job", req.job.value())
                              .field("victim", s.job.value())
                              .field("cores", s.cores));
          // Patch the cached physical profile: the victim's hold loses
          // s.cores over its remaining walltime interval.
          const rms::Job& victim = env.server.job(s.job);
          const Time victim_end = hold_end_for(victim, now);
          ctx.applier.shrink_malleable(s.job, s.cores, req.job);
          ctx.physical.add(now, victim_end, s.cores);
          freed += s.cores;
          ++ctx.stats.malleable_shrinks;
        }
        remeasure(freed, /*requeued=*/false);
      }
    }

    // Optional §II-B strategy: free cores by preempting backfilled
    // preemptible jobs, then re-measure against the patched state.
    if (!m.feasible && env.config.allow_preemption) {
      const std::vector<JobId> victims =
          select_preemption_victims(env.server.jobs().running(),
                                    req.extra_cores, ctx.physical_free,
                                    req.job);
      if (!victims.empty()) {
        CoreCount freed = 0;
        for (const JobId victim : victims) {
          DBS_TRACE_EVENT(tracer,
                          obs::TraceEvent(now, "sched", "preempt_for_dyn")
                              .field("for_job", req.job.value())
                              .field("victim", victim.value()));
          // Patch: the victim's entire hold (same interval the profile
          // rebuild would have subtracted) is returned to the pool.
          const rms::Job& victim_job = env.server.job(victim);
          const CoreCount victim_cores = victim_job.allocated_cores();
          const Time victim_end = hold_end_for(victim_job, now);
          ctx.applier.preempt(victim, req.job);
          ctx.physical.add(now, victim_end, victim_cores);
          freed += victim_cores;
          ++ctx.stats.preempted;
        }
        remeasure(freed, /*requeued=*/true);
      }
    }

    // Aggregate feasibility is necessary but, with Torque-style chunked
    // placements, not sufficient: the extra cores must also fit the
    // node-level free map.
    const bool placeable =
        m.feasible && env.server.cluster().can_allocate_chunked(
                           req.extra_cores, env.server.effective_ppn(owner));

    DfsVerdict verdict = DfsVerdict::Allowed;
    if (placeable) verdict = env.dfs.admit(owner.spec().cred, m.delays);

    const bool granted = placeable && verdict == DfsVerdict::Allowed &&
                         ctx.applier.grant_dyn(req);
    // The decision audit trail: every grant/reject/defer carries the
    // per-protected-job measured delays, the DFS verdict (naming the
    // violated rule) and the non-DFS reason when resources were the issue.
    rms::RejectReason reason = rms::RejectReason::Granted;
    if (!granted) {
      if (!m.feasible)
        reason = rms::RejectReason::NoIdleResources;
      else if (!placeable)
        reason = rms::RejectReason::NodeFragmentation;
      else if (verdict == DfsVerdict::DeniedPermission)
        reason = rms::RejectReason::DeniedPermission;
      else if (verdict == DfsVerdict::DeniedSingleDelay)
        reason = rms::RejectReason::DeniedSingleDelay;
      else if (verdict == DfsVerdict::DeniedTargetDelay)
        reason = rms::RejectReason::DeniedTargetDelay;
      else
        reason = rms::RejectReason::AllocationFailed;
    }

    if (granted) {
      // A dry-run must not consume DFS delay budget: the grant is not real
      // and the next live iteration will commit it itself.
      if (!ctx.applier.dry_run()) env.dfs.commit(owner.spec().cred, m.delays);
      if (tracer != nullptr && tracer->enabled()) {
        ctx.json_scratch.clear();
        delays_to_json(m.delays, ctx.json_scratch);
        tracer->emit(obs::TraceEvent(now, "sched", "dyn_grant")
                         .field("job", req.job.value())
                         .field("request", req.id.value())
                         .field("extra_cores", req.extra_cores)
                         .field("verdict", to_string(verdict))
                         .field_json("delays", ctx.json_scratch));
      }
      // Adopt the tentative state: the hold is now real. Swaps keep the
      // measurement's storage alive for the next request. The replanned
      // table is index-aligned with the old baseline, so the protected set
      // stays a subsequence of the new one.
      ctx.physical.subtract(hold.from, hold.until, hold.extra_cores);
      ctx.physical_free -= hold.extra_cores;
      std::swap(ctx.planning, m.profile_after);
      std::swap(baseline, m.replanned);
      ctx.admission_changed_plan = true;
      ++ctx.stats.dyn_granted;
    } else {
      DBS_TRACE("dyn request of job " << req.job.value() << " denied: "
                                      << to_string(reason) << " at " << now);
      const std::optional<Time> hint =
          estimate_availability(ctx.physical, owner, req.extra_cores, now);
      const bool deferred = ctx.applier.reject_dyn(req, hint, reason);
      if (tracer != nullptr && tracer->enabled()) {
        ctx.json_scratch.clear();
        delays_to_json(m.delays, ctx.json_scratch);
        tracer->emit(
            obs::TraceEvent(now, "sched", deferred ? "dyn_defer" : "dyn_reject")
                .field("job", req.job.value())
                .field("request", req.id.value())
                .field("extra_cores", req.extra_cores)
                .field("reason", to_string(reason))
                .field("verdict", to_string(verdict))
                .field_json("delays", ctx.json_scratch));
      }
      if (deferred)
        ++ctx.stats.dyn_deferred;
      else
        ++ctx.stats.dyn_rejected;
    }
  }
}

}  // namespace dbs::core
