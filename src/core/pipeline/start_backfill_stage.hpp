#pragma once

#include "core/pipeline/stage.hpp"

namespace dbs::core {

/// Steps 25-26: plan static jobs against the post-admission profile, start
/// the StartNow set in priority order (reservations only up to
/// ReservationDepth) and backfill the remainder. The step-10 plan is
/// reused when it was planned at ReservationDepth and admission changed
/// none of its inputs; otherwise the stage re-plans.
class StartBackfillStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "start_backfill";
  }
  void run(PipelineEnv& env, IterationContext& ctx) override;
};

}  // namespace dbs::core
