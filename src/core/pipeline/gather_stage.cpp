#include "core/pipeline/stages.hpp"

#include "common/assert.hpp"
#include "core/physical_profile.hpp"
#include "core/scheduler_config.hpp"

namespace dbs::core {

void gather(IterationContext& ctx) {
  // Dynamic requests are served in FIFO order (the server's queue order);
  // the snapshot fixes this iteration's serving order even as grants and
  // rejections mutate the live queue.
  ctx.requests.assign(ctx.server.jobs().dyn_requests().begin(),
                      ctx.server.jobs().dyn_requests().end());
  ctx.stats.eligible_dynamic = ctx.requests.size();

  // The iteration's physical profile: either the persistent tracker
  // advanced to now (O(Δ) in state changes since the last iteration) or a
  // from-scratch rebuild over the whole running set. Copied into the
  // context either way — the admission stage patches its copy in place on
  // every state change (grant, malleable shrink, preemption) and dry runs
  // must not perturb the tracker.
  if (ctx.tracker != nullptr) {
    ctx.tracker->advance(ctx.now);
    if (ctx.config.check_invariants) {
      ctx.rebuild_physical_profile();
      DBS_REQUIRE(ctx.physical == ctx.tracker->profile(),
                  "incremental physical profile diverged from rebuild");
    }
    ctx.physical = ctx.tracker->profile();
  } else {
    ctx.rebuild_physical_profile();
  }
  ctx.physical_free = ctx.server.cluster().free_cores();
  ctx.rebuild_planning_profile(ctx.config.dynamic_partition_cores);
}

}  // namespace dbs::core
