#include "core/pipeline/iteration_context.hpp"

#include "core/partition.hpp"
#include "core/physical_profile.hpp"

namespace dbs::core {

const std::array<std::string_view, kStageCount>& stage_names() {
  static const std::array<std::string_view, kStageCount> names{
      "gather",   "statistics", "prioritize",
      "classify", "admission",  "start_backfill"};
  return names;
}

IterationContext::IterationContext(rms::Server& server_ref)
    : server(server_ref), applier(server_ref) {}

void IterationContext::begin_iteration(Time at, std::uint64_t iteration_number,
                                       bool dry_run) {
  now = at;
  iteration = iteration_number;
  stats = IterationStats{};
  stats.at = at;
  drain = false;
  physical_free = 0;
  prioritized.clear();
  admission_changed_plan = false;
  staircase.replanned = 0;
  applier.begin_iteration(dry_run);
}

void IterationContext::rebuild_physical_profile() {
  const cluster::Cluster& cl = server.cluster();
  physical.reset(now, cl.total_cores());
  for (const rms::Job* job : server.jobs().running())
    physical.subtract(now, hold_end_for(*job, now), job->allocated_cores());
  // Down/offline nodes: their unused cores are unavailable indefinitely.
  // One aggregate subtract over the same interval equals the per-node
  // subtracts, and the ledger keeps the sum in O(1) — no node scan.
  if (const CoreCount down = cl.unavailable_free_cores(); down > 0)
    physical.subtract(now, Time::far_future(), down);
}

void IterationContext::rebuild_planning_profile(
    CoreCount dynamic_partition_cores) {
  planning = physical;
  reserve_dynamic_partition(planning, dynamic_partition_cores);
}

}  // namespace dbs::core
