#include "batch/experiment.hpp"

namespace dbs::batch {

RunResult run_workload(const SystemConfig& config, const wl::Workload& workload,
                       std::string label) {
  BatchSystem system(config);
  system.submit_workload(workload);
  system.run();

  RunResult result;
  result.label = std::move(label);
  result.summary = metrics::summarize(system.recorder());
  result.jobs = system.recorder().records();
  result.waits = metrics::wait_series(result.jobs);
  result.scheduler_iterations = system.scheduler().iterations();
  result.events = system.simulator().events_fired();
  return result;
}

}  // namespace dbs::batch
