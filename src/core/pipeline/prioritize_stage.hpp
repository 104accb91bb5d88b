#pragma once

#include <vector>

#include "core/pipeline/stage.hpp"

namespace dbs::core {

/// Queued jobs eligible this iteration: every queued job, clamped to the
/// first max_eligible_per_user per user when that cap is configured.
[[nodiscard]] std::vector<const rms::Job*> eligible_static_jobs(
    const rms::Server& server, const SchedulerConfig& config);

/// Allocation-free variant: clears `out` and fills it, reusing capacity.
void eligible_static_jobs_into(const rms::Server& server,
                               const SchedulerConfig& config,
                               std::vector<const rms::Job*>& out);

/// Fills ctx.prioritized with the eligible static jobs, highest priority
/// first, and returns whether one has exclusive priority. Incremental
/// planning orders them by PriorityEngine::order (one key per job) and,
/// under check_invariants, compares that with the comparator sort the
/// rebuild path runs.
bool prioritize_eligible(const PipelineEnv& env, IterationContext& ctx);

/// Steps 6-9: select eligible static jobs and order them by priority
/// (multi-factor weights + fairshare); detect ESP Z drain mode (an
/// exclusive-priority job is queued).
class PrioritizeStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return "prioritize"; }
  void run(PipelineEnv& env, IterationContext& ctx) override;
};

}  // namespace dbs::core
