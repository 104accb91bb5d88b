// Sharded batch system: K independent BatchSystem stacks — one per shard
// of the cluster (core::ShardMap) — plus the deterministic router that
// assigns every submission to exactly one shard at ingest time.
//
// Each shard is a complete world (Simulator, Cluster slice, Server, Moms,
// MauiScheduler with its DfsEngine and ReservationTable, Recorder) and the
// shards share nothing mutable: metrics land in per-shard private
// registries, traces and flight records in per-shard files. The K shard
// runs execute concurrently on an exec::ThreadPool, and because the shards
// are isolated and all merging happens in shard-index order, a sharded run
// is byte-identical to executing the same K shards serially at any thread
// count, on the replay and the service path alike.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "batch/batch_system.hpp"
#include "core/shard_map.hpp"
#include "exec/thread_pool.hpp"
#include "metrics/report.hpp"
#include "obs/registry.hpp"

namespace dbs::batch {

/// How dbsim/dbsd build the node partition from a whole-cluster spec.
enum class ShardMapKind { Range, Hash };

/// Sharding knobs layered over a SystemConfig (which describes the whole
/// machine; the map splits its nodes).
struct ShardConfig {
  std::size_t shards = 1;
  ShardMapKind map = ShardMapKind::Range;
  core::RoutePolicy policy = core::RoutePolicy::UserHash;
  /// Worker threads driving the per-shard runs (1 = serial; byte-identical
  /// output either way). More than `shards` would only idle: the pool is
  /// capped at one worker per shard.
  std::size_t threads = 1;
};

/// Builds the node partition `config` asks for from the whole-machine spec.
[[nodiscard]] core::ShardMap make_shard_map(const cluster::ClusterSpec& spec,
                                            const ShardConfig& config);

class ShardedSystem {
 public:
  /// `base.cluster` describes the whole machine; each shard gets a
  /// BatchSystem over its slice of it (all other SystemConfig fields are
  /// inherited per shard). Shard k starts with sinks = its own private
  /// registry, no tracer, no recorder.
  ShardedSystem(const SystemConfig& base, const ShardConfig& config);

  ShardedSystem(const ShardedSystem&) = delete;
  ShardedSystem& operator=(const ShardedSystem&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return systems_.size(); }
  [[nodiscard]] BatchSystem& shard(std::size_t k) { return *systems_.at(k); }
  [[nodiscard]] const BatchSystem& shard(std::size_t k) const {
    return *systems_.at(k);
  }
  [[nodiscard]] core::ShardRouter& router() { return router_; }
  [[nodiscard]] const core::ShardMap& map() const { return map_; }
  [[nodiscard]] const ShardConfig& shard_config() const { return config_; }
  /// The `threads`-wide pool the shard fan-outs run on; a ShardedService
  /// driving this system runs its per-shard fan-outs on it too.
  [[nodiscard]] exec::ThreadPool& pool() { return pool_; }

  /// Re-attaches shard k's sinks with caller-owned tracer/recorder outputs;
  /// the registry stays the shard's private one (a shared registry across
  /// concurrently iterating shards would order fp histogram updates
  /// nondeterministically).
  void set_shard_sinks(std::size_t k, obs::Tracer* tracer,
                       obs::rec::FlightRecorder* recorder = nullptr);

  /// Routes every job of `workload` and schedules it on its shard.
  void submit_workload(const wl::Workload& workload);

  /// Routes the whole stream up front into per-shard submission lists,
  /// then streams each shard's list through its own `window`
  /// (BatchSystem::submit_stream). Routing must see the stream in order
  /// before the shards run — one window shared in lock-step would
  /// serialize them — so the routed specs are materialized: routing holds
  /// O(total jobs) while each shard's event queue stays O(window). The
  /// source is drained by this call and need not outlive run().
  void submit_stream(wl::SubmissionSource& source,
                     std::size_t window = kSubmissionWindow);

  /// Runs every shard to completion, concurrently on `threads` workers.
  void run();
  /// Runs every shard until `until` (same fan-out).
  void run_until(Time until);

  /// Merges the per-shard private registries into `into` in shard order
  /// (deterministic; call after run()).
  void merge_registries(obs::Registry& into) const;

  /// Machine-wide summary: per-shard recorder summaries merged with
  /// capacity weighting (metrics::merge_summaries).
  [[nodiscard]] metrics::WorkloadSummary summary() const;
  /// Shard k's own summary.
  [[nodiscard]] metrics::WorkloadSummary shard_summary(std::size_t k) const;

 private:
  ShardConfig config_;
  core::ShardMap map_;
  core::ShardRouter router_;
  std::vector<std::unique_ptr<obs::Registry>> registries_;
  std::vector<std::unique_ptr<BatchSystem>> systems_;
  /// Routed per-shard submission lists pinned for streaming runs (each
  /// shard's window reads its list during run()).
  std::vector<wl::Workload> routed_;
  std::vector<std::unique_ptr<wl::WorkloadSource>> routed_sources_;
  exec::ThreadPool pool_;
};

}  // namespace dbs::batch
