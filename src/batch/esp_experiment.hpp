// The dynamic-ESP evaluation of §IV-B: the four configurations of Table II
// (Static, Dyn-HP, Dyn-500, Dyn-600) and the waiting-time comparisons of
// Figs. 8-11.
#pragma once

#include <string>
#include <vector>

#include "batch/experiment.hpp"

namespace dbs::batch {

enum class EspConfig { Static, DynHP, Dyn500, Dyn600 };

[[nodiscard]] std::string_view to_string(EspConfig c);

struct EspExperimentParams {
  wl::EspParams workload;              ///< shared across configurations
  rms::LatencyModel latency;
  CoreCount cores_per_node = 8;
  /// Both set to 5 in the paper's evaluation.
  std::size_t reservation_depth = 5;
  std::size_t reservation_delay_depth = 5;
  apps::SpeedupModel speedup = apps::SpeedupModel::PaperDet;
  /// Cumulative per-user delay limits for the fairness configurations.
  Duration dyn500_limit = Duration::seconds(500);
  Duration dyn600_limit = Duration::seconds(600);
  Duration dfs_interval = Duration::hours(1);
};

/// The scheduler configuration for one ESP run.
[[nodiscard]] core::SchedulerConfig esp_scheduler_config(
    const EspExperimentParams& params, EspConfig config);

/// The full system configuration for one ESP run.
[[nodiscard]] SystemConfig esp_system_config(const EspExperimentParams& params,
                                             EspConfig config);

/// Runs one configuration end to end.
[[nodiscard]] RunResult run_esp(const EspExperimentParams& params,
                                EspConfig config);

/// Runs all four configurations (Table II order).
[[nodiscard]] std::vector<RunResult> run_esp_all(
    const EspExperimentParams& params);

}  // namespace dbs::batch
