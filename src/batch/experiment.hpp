// Shared experiment plumbing: run a workload through a configured system
// and capture everything reports need.
#pragma once

#include <string>
#include <vector>

#include "batch/batch_system.hpp"
#include "metrics/report.hpp"
#include "workload/esp.hpp"

namespace dbs::obs {
class Registry;
}

namespace dbs::batch {

struct RunResult {
  std::string label;
  metrics::WorkloadSummary summary;
  std::vector<metrics::JobRecord> jobs;   ///< in submission order
  std::vector<metrics::WaitPoint> waits;  ///< completed jobs, submission order
  std::uint64_t scheduler_iterations = 0;
  std::uint64_t events = 0;

  /// Waiting times restricted to one ESP type letter.
  [[nodiscard]] std::vector<metrics::WaitPoint> waits_of_type(
      const std::string& tag) const;
};

/// Builds the system, injects the workload, runs to completion.
[[nodiscard]] RunResult run_workload(const SystemConfig& config,
                                     const wl::Workload& workload,
                                     std::string label);

}  // namespace dbs::batch
