#include "batch/esp_experiment.hpp"

#include "common/assert.hpp"

namespace dbs::batch {

std::string_view to_string(EspConfig c) {
  switch (c) {
    case EspConfig::Static: return "Static";
    case EspConfig::DynHP: return "Dyn-HP";
    case EspConfig::Dyn500: return "Dyn-500";
    case EspConfig::Dyn600: return "Dyn-600";
  }
  return "?";
}

core::SchedulerConfig esp_scheduler_config(const EspExperimentParams& params,
                                           EspConfig config) {
  core::SchedulerConfig sched;
  sched.reservation_depth = params.reservation_depth;
  sched.reservation_delay_depth = params.reservation_delay_depth;
  sched.weights.queue_time_per_minute = 1.0;

  switch (config) {
    case EspConfig::Static:
    case EspConfig::DynHP:
      // Dynamic fairness disabled: dynamic requests take highest priority
      // and delays to static jobs are ignored.
      sched.dfs.policy = core::DfsPolicy::None;
      break;
    case EspConfig::Dyn500:
    case EspConfig::Dyn600:
      // Each static user's jobs may cumulatively be delayed by at most the
      // limit within each interval.
      sched.dfs.policy = core::DfsPolicy::TargetDelay;
      sched.dfs.interval = params.dfs_interval;
      sched.dfs.decay = 0.0;
      sched.dfs.defaults.target_delay = config == EspConfig::Dyn500
                                            ? params.dyn500_limit
                                            : params.dyn600_limit;
      break;
  }
  return sched;
}

SystemConfig esp_system_config(const EspExperimentParams& params,
                               EspConfig config) {
  DBS_REQUIRE(params.workload.total_cores % params.cores_per_node == 0,
              "machine size must be whole nodes");
  SystemConfig sys;
  sys.cluster.node_count = static_cast<std::size_t>(
      params.workload.total_cores / params.cores_per_node);
  sys.cluster.cores_per_node = params.cores_per_node;
  sys.latency = params.latency;
  sys.scheduler = esp_scheduler_config(params, config);
  sys.speedup = params.speedup;
  return sys;
}

RunResult run_esp(const EspExperimentParams& params, EspConfig config) {
  wl::EspParams wl_params = params.workload;
  wl_params.evolving_enabled = config != EspConfig::Static;
  const wl::Workload workload = wl::generate_esp(wl_params);
  return run_workload(esp_system_config(params, config), workload,
                      std::string(to_string(config)));
}

std::vector<RunResult> run_esp_all(const EspExperimentParams& params) {
  std::vector<RunResult> results;
  for (const EspConfig c : {EspConfig::Static, EspConfig::DynHP,
                            EspConfig::Dyn500, EspConfig::Dyn600})
    results.push_back(run_esp(params, c));
  return results;
}

}  // namespace dbs::batch
