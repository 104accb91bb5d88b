#include "core/pipeline/prioritize_stage.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/assert.hpp"
#include "core/priority.hpp"
#include "core/scheduler_config.hpp"

namespace dbs::core {

void eligible_static_jobs_into(const rms::Server& server,
                               const SchedulerConfig& config,
                               std::vector<const rms::Job*>& out) {
  server.jobs().queued_into(out);
  // Common path: no per-user cap means every queued job is eligible; the
  // per-user counting map is only built when a cap is configured.
  if (!config.max_eligible_per_user) return;
  std::unordered_map<std::string, std::size_t> per_user;
  per_user.reserve(out.size());
  std::size_t kept = 0;
  for (const rms::Job* job : out) {
    std::size_t& count = per_user[job->spec().cred.user];
    if (count >= *config.max_eligible_per_user) continue;
    ++count;
    out[kept++] = job;
  }
  out.resize(kept);
}

std::vector<const rms::Job*> eligible_static_jobs(
    const rms::Server& server, const SchedulerConfig& config) {
  std::vector<const rms::Job*> eligible;
  eligible_static_jobs_into(server, config, eligible);
  return eligible;
}

bool prioritize_eligible(const PipelineEnv& env, IterationContext& ctx) {
  if (!env.config.incremental_planning) {
    ctx.prioritized = env.priority.prioritize(
        eligible_static_jobs(env.server, env.config), ctx.now);
    return std::any_of(
        ctx.prioritized.begin(), ctx.prioritized.end(),
        [](const rms::Job* job) { return job->spec().exclusive_priority; });
  }
  eligible_static_jobs_into(env.server, env.config, ctx.prioritized);
  const bool exclusive =
      env.priority.order(ctx.prioritized, ctx.now, ctx.priority_keys);
  if (env.config.check_invariants) {
    DBS_REQUIRE(ctx.prioritized ==
                    env.priority.prioritize(
                        eligible_static_jobs(env.server, env.config), ctx.now),
                "keyed priority order diverged from the comparator sort");
  }
  return exclusive;
}

void PrioritizeStage::run(PipelineEnv& env, IterationContext& ctx) {
  ctx.drain = prioritize_eligible(env, ctx);
  ctx.stats.eligible_static = ctx.prioritized.size();
}

}  // namespace dbs::core
