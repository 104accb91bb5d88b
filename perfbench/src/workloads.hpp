// The three workloads and the per-layer metric set they share.
#pragma once

#include <cstdint>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "probe.hpp"

namespace pb {

/// Jobs per replay (both replay workloads) and per service run.
inline constexpr std::uint64_t kReplayJobs = 100000;
inline constexpr std::uint64_t kServiceJobs = 20000;
/// Timed system constructions next to every repetition (setup_s is their
/// median over the run).
inline constexpr int kSetupSamples = 20;
/// Chrome trace files keep the first this-many spans (~100 bytes each).
inline constexpr std::size_t kMaxTraceEvents = 200000;

[[nodiscard]] Result run_replay(const Options& opt);
[[nodiscard]] Result run_service(const Options& opt);

/// The seeded synthetic SWF trace (SwfGenParams defaults otherwise), as
/// text in memory.
[[nodiscard]] std::string generate_trace(const Options& opt, std::uint64_t jobs,
                                         std::uint64_t mean_interarrival_s);

/// Read-only streambuf over a string: the in-memory trace is parsed in
/// place, so no run pays for copying it.
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& text) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + text.size());
  }
};

/// Everything a traced run measured about the layers below svc.
struct LayerSample {
  const LifecycleObserver* counts = nullptr;
  std::uint64_t jobs = 0;
  std::uint64_t next_calls = 0;
  double workload_s = 0.0;
  std::uint64_t events = 0;
  std::size_t pending_max = 0;
  double sim_rms_s = 0.0;
  std::uint64_t iterations = 0;
  double core_busy_s = 0.0;
  std::vector<double> iteration_us;
  const dbs::obs::Registry* registry = nullptr;
};

/// Sum of the scheduler's per-stage timers (stage_timing on), in seconds;
/// absent stages count 0.
[[nodiscard]] double stage_seconds(const dbs::obs::Registry& registry);

/// workload.*, sim.*, sim_rms.*, rms.*, core.* and cluster.* metrics.
void add_layer_metrics(Result& r, const LayerSample& s);

/// What a traced service run measured about svc.
struct SvcSample {
  std::uint64_t ticks = 0;
  double tick_p99_us = 0.0;
  double tick_busy_s = 0.0;
  double records_per_tick = 0.0;
  double push_p99_us = 0.0;
  std::size_t ingest_depth_max = 0;
  double gen_lag_p99_ms = 0.0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  double wal_bytes_per_job = 0.0;
  std::uint64_t recover_replayed = 0;
  /// Median open() on a fresh state dir (creates the dir and the WAL).
  double cold_open_ms = 0.0;
  /// The untraced open-loop repetitions' ack latency (median over them):
  /// too unsteady on a shared host to bound as end-to-end metrics.
  double ack_p50_ms = 0.0;
  double ack_p99_ms = 0.0;
};

/// svc.* metrics: the counts into the JSON (0 for a replay's empty sample),
/// the times into the report only.
void add_svc_metrics(Result& r, const SvcSample& s);

/// The per-layer table: self seconds, µs/job and % of traced wall per
/// layer, plus the named residual and the sum.
void add_layer_table(Result& r, const std::string& title, double wall_s,
                     double jobs,
                     const std::vector<std::pair<std::string, double>>& layers,
                     const std::string& residual_name, double residual_s);

}  // namespace pb
