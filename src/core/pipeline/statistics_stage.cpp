#include "core/pipeline/stages.hpp"

#include "core/dfs_engine.hpp"
#include "core/fairshare.hpp"
#include "core/scheduler_config.hpp"

namespace dbs::core {

void statistics(IterationContext& ctx) {
  // Charge running jobs' usage since the last update into fairshare. Runs
  // in dry-run passes too: the charge is a function of elapsed time, so
  // charging part of an interval early conserves the total.
  const Duration elapsed = ctx.now - ctx.last_usage_update;
  if (ctx.config.fairshare.enabled && elapsed > Duration::zero()) {
    for (const rms::Job* job : ctx.server.jobs().running())
      ctx.fairshare.record_usage(
          job->spec().cred,
          static_cast<double>(job->allocated_cores()) * elapsed.as_seconds(),
          ctx.now);
  }
  ctx.last_usage_update = ctx.now;
  ctx.fairshare.advance_to(ctx.now);
  ctx.dfs.advance_to(ctx.now);
}

}  // namespace dbs::core
