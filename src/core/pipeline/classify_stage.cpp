#include "core/pipeline/stages.hpp"

#include <string>

#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"
#include "core/scheduler_config.hpp"
#include "obs/tracer.hpp"

namespace dbs::core {

namespace {

/// Appends a JSON array of the job ids in a reservation-table subset.
void ids_json(const ReservationTable& table, bool start_now, std::string& out) {
  const std::size_t begin = out.size();
  out += '[';
  for (const Reservation& r : table.items()) {
    if (r.start_now != start_now) continue;
    if (out.size() > begin + 1) out += ',';
    out += std::to_string(r.job->id().value());
  }
  out += ']';
}

void ids_json(const std::vector<const rms::Job*>& jobs, std::string& out) {
  const std::size_t begin = out.size();
  out += '[';
  for (const rms::Job* job : jobs) {
    if (out.size() > begin + 1) out += ',';
    out += std::to_string(job->id().value());
  }
  out += ']';
}

}  // namespace

void classify(IterationContext& ctx) {
  // Step-10 plan options: delay-measurement reservations up to
  // max(ReservationDepth, ReservationDelayDepth). Fixed for the whole pass;
  // the admission stage replans with the same options after state changes.
  ctx.measure_opts =
      PlanOptions{ctx.now, ctx.config.delay_plan_depth(),
                  ctx.config.enable_backfill && !ctx.drain, ctx.drain};
  plan_jobs_into(ctx.prioritized, ctx.planning, ctx.measure_opts,
                 ctx.baseline_plan,
                 ctx.config.incremental_planning ? &ctx.staircase : nullptr);
  // The protected set (StartNow + first ReservationDelayDepth StartLater,
  // Fig. 5) is read off this step-10 plan, which holds its jobs in
  // priority order. Grants keep it even as they shift later plans; only a
  // steal or preemption, which re-plans, recomputes it.
  protected_subset_into(ctx.baseline_plan.table,
                        ctx.config.reservation_delay_depth,
                        ctx.protected_jobs);

  // Step-10 audit record: the StartNow / StartLater split and the protected
  // set the fairness policies will judge this iteration's requests against.
  obs::Tracer* tracer = ctx.sinks.tracer;
  if (tracer != nullptr && tracer->enabled()) {
    obs::TraceEvent ev(ctx.now, "sched", "classify");
    ev.field("iteration", ctx.iteration);
    ctx.json_scratch.clear();
    ids_json(ctx.baseline_plan.table, true, ctx.json_scratch);
    ev.field_json("start_now", ctx.json_scratch);
    ctx.json_scratch.clear();
    ids_json(ctx.baseline_plan.table, false, ctx.json_scratch);
    ev.field_json("start_later", ctx.json_scratch);
    ctx.json_scratch.clear();
    ids_json(ctx.protected_jobs, ctx.json_scratch);
    ev.field_json("protected", ctx.json_scratch);
    tracer->emit(ev);
  }
}

}  // namespace dbs::core
