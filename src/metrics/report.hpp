// Aggregation of recorder data into the quantities the paper reports:
// workload makespan, satisfied evolving jobs, utilization, throughput and
// waiting-time series.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "metrics/recorder.hpp"

namespace dbs::metrics {

struct WorkloadSummary {
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  std::size_t evolving_jobs = 0;     ///< jobs that issued >= 1 dyn request
  /// Jobs whose every dynamic request was granted (Table II "satisfied").
  std::size_t satisfied_dyn_jobs = 0;
  /// Total granted dynamic requests across all jobs (request-level view:
  /// a job with grants and one final rejection still contributes here).
  std::size_t granted_dyn_requests = 0;
  std::size_t backfilled_jobs = 0;
  Duration makespan;                 ///< first submit -> last finish
  double utilization = 0.0;          ///< percent of capacity over makespan
  double throughput_jobs_per_min = 0.0;
  Duration avg_wait;
  Duration max_wait;
  Duration avg_turnaround;
};

/// Aggregates over all completed jobs in the recorder.
[[nodiscard]] WorkloadSummary summarize(const Recorder& recorder);

/// Merges per-shard summaries into one machine-wide view (sharded runs:
/// each shard schedules its own cluster slice and produces its own
/// summary). Count fields sum; avg_wait/avg_turnaround re-weight by
/// completed jobs; makespan is the longest shard makespan (shards start
/// together, the run ends when the last one drains); utilization and
/// throughput are recomputed over the merged makespan with
/// `capacities[i]` = shard i's cores, so the merged numbers are what a
/// whole-machine observer would have measured. Deterministic: pure
/// left-to-right arithmetic over the inputs in index order.
[[nodiscard]] WorkloadSummary merge_summaries(
    const std::vector<WorkloadSummary>& parts,
    const std::vector<CoreCount>& capacities);

/// Waiting time of each job of `records` (submission order) that started,
/// in that order. When `type_tag` is non-empty, only jobs of that type are
/// included.
struct WaitPoint {
  std::size_t submit_index;  ///< position in submission order (0-based)
  std::string name;
  Duration wait;
};
[[nodiscard]] std::vector<WaitPoint> wait_series(
    const std::vector<JobRecord>& records, const std::string& type_tag = "");

/// A Table-II-style row.
[[nodiscard]] std::vector<std::string> performance_row(
    const std::string& config_name, const WorkloadSummary& summary,
    double baseline_throughput /* <= 0: print '-' for the increase */);

/// Header matching performance_row.
[[nodiscard]] std::vector<std::string> performance_header();

}  // namespace dbs::metrics
