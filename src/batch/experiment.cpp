#include "batch/experiment.hpp"

namespace dbs::batch {

std::vector<metrics::WaitPoint> RunResult::waits_of_type(
    const std::string& tag) const {
  std::vector<metrics::WaitPoint> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const metrics::JobRecord& r = jobs[i];
    if (r.type_tag != tag || !r.start.has_value()) continue;
    out.push_back({i, r.name, r.wait_time()});
  }
  return out;
}

RunResult run_workload(const SystemConfig& config, const wl::Workload& workload,
                       std::string label) {
  BatchSystem system(config);
  system.submit_workload(workload);
  system.run();

  RunResult result;
  result.label = std::move(label);
  result.summary = metrics::summarize(system.recorder());
  result.jobs = system.recorder().records();
  result.waits = metrics::wait_series(system.recorder());
  result.scheduler_iterations = system.scheduler().iterations();
  result.events = system.simulator().events_fired();
  return result;
}

}  // namespace dbs::batch
