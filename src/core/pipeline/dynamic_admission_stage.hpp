#pragma once

#include "core/pipeline/stage.hpp"

namespace dbs::core {

/// Steps 11-24: process the iteration's dynamic requests in FIFO order.
/// For each live request: measure the delays a tentative grant would cause
/// to the protected jobs (optionally freeing cores first via malleable
/// shrinking or preemption), consult the DFS policies, then emit a
/// GrantDyn or RejectDyn decision through ctx.applier.
class DynamicAdmissionStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return "admission"; }
  void run(PipelineEnv& env, IterationContext& ctx) override;
};

}  // namespace dbs::core
