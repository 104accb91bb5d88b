// Multi-tenant sharding: a static partition of the cluster's nodes into K
// independently scheduled shards, plus the deterministic router that picks
// the shard a submission lands on.
//
// A shard is a full scheduler stack (MauiScheduler + DfsEngine +
// ReservationTable) over its own cluster view; shards share nothing
// mutable, so K shard iterations can run concurrently on a thread pool
// while staying byte-identical to running the same shards serially.
// The ShardMap is the static half (which nodes belong to which shard); the
// ShardRouter is the dynamic half (which shard a job goes to), and every
// routing policy is a pure function of the submission stream so a replay
// or a WAL recovery re-routes every job to the same shard.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "rms/job.hpp"

namespace dbs::core {

/// 64-bit FNV-1a — the routing hash. Stable across platforms and runs (no
/// std::hash, whose value is implementation-defined), so routed workloads
/// replay identically everywhere.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s);

/// One shard of the machine: a name (routing target for the Partition
/// policy, recorder/WAL label) and the slice of the cluster it schedules.
struct ShardSpec {
  std::string name;              ///< e.g. "part0", or a site name ("gpu")
  cluster::ClusterSpec cluster;  ///< this shard's view (node subset)
};

/// Static node→shard partition. Built once at configuration time; never
/// mutated afterwards, so it is safe to share across concurrently
/// iterating shards.
class ShardMap {
 public:
  /// K contiguous node ranges of a homogeneous cluster, remainder nodes
  /// spread over the first shards (sizes differ by at most one). Shard k
  /// is named "part<k>". Requires 1 <= shards <= spec.node_count.
  [[nodiscard]] static ShardMap by_range(const cluster::ClusterSpec& spec,
                                         std::size_t shards);

  /// Node i goes to shard fnv1a64(i) % K. For a homogeneous cluster the
  /// per-shard view only depends on the bucket sizes, but the explicit
  /// node assignment is kept for inspection/tests. Shards that receive no
  /// node are rejected (every shard must be schedulable); use by_range for
  /// K close to node_count.
  [[nodiscard]] static ShardMap by_hash(const cluster::ClusterSpec& spec,
                                        std::size_t shards);

  /// Explicit named partitions (e.g. mirroring a site's queue→partition
  /// table). Every partition needs a unique non-empty name and at least
  /// one node.
  [[nodiscard]] static ShardMap by_partitions(std::vector<ShardSpec> parts);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const ShardSpec& shard(std::size_t k) const;
  [[nodiscard]] const std::vector<ShardSpec>& shards() const {
    return shards_;
  }

  /// Shard owning global node `node` (by_range/by_hash maps only; for
  /// by_partitions nodes are numbered shard-major in partition order).
  [[nodiscard]] std::size_t shard_of_node(std::size_t node) const;

  /// Shard index of the partition named `name`, or npos when absent.
  [[nodiscard]] std::size_t shard_named(std::string_view name) const;

  [[nodiscard]] std::size_t total_nodes() const {
    return node_to_shard_.size();
  }
  /// Cores of shard k: its nodes times their cores per node.
  [[nodiscard]] std::uint64_t shard_cores(std::size_t k) const;
  [[nodiscard]] CoreCount total_cores() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  std::vector<ShardSpec> shards_;
  std::vector<std::size_t> node_to_shard_;  ///< global node -> shard index
};

/// How the router picks a shard for a submission.
enum class RoutePolicy {
  /// fnv1a64(user) % K: one tenant's jobs always land on one shard, so
  /// per-user fair-share state never splits across shards.
  UserHash,
  /// Job class (queue) name matched against the shard names; submissions
  /// whose class names no shard fall back to UserHash. The classic
  /// site-partition model (SLURM partitions).
  Partition,
  /// Deterministic least-loaded: the shard with the smallest cumulative
  /// routed cores *per core of shard capacity* (ties -> lowest index).
  /// The ledger only ever grows — a decrement on job completion would make
  /// routing depend on scheduling outcomes and break replay/recovery
  /// stability — so the policy balances the submitted stream, not the
  /// instantaneous occupancy.
  LeastLoaded
};

[[nodiscard]] std::string_view to_string(RoutePolicy p);

/// Assigns submissions to shards at ingest time. Deterministic: the chosen
/// shard is a pure function of (policy, shard map, submission stream so
/// far). Not thread-safe — route from the single ingest/driver thread, the
/// same place submissions are already serialized.
class ShardRouter {
 public:
  ShardRouter(const ShardMap& map, RoutePolicy policy);

  /// Shard for `spec`; LeastLoaded also charges the job's cores to the
  /// chosen shard's ledger. Throws precondition_error, naming the job, its
  /// cores and the shard's, when the job is wider than the chosen shard:
  /// it could never start there, and the run would never end.
  std::size_t route(const rms::JobSpec& spec);

  [[nodiscard]] RoutePolicy policy() const { return policy_; }
  [[nodiscard]] const ShardMap& map() const { return *map_; }

  /// Cumulative routed cores per shard (monotone; LeastLoaded's ledger,
  /// maintained under every policy for observability).
  [[nodiscard]] const std::vector<std::uint64_t>& routed_cores() const {
    return routed_cores_;
  }
  [[nodiscard]] std::uint64_t routed_jobs(std::size_t k) const {
    return routed_jobs_.at(k);
  }

  /// Recovery: seed the ledger from durable per-shard ingest totals so a
  /// reopened service keeps routing exactly where a never-restarted one
  /// would. Size must equal shard_count().
  void restore(std::vector<std::uint64_t> routed_cores,
               std::vector<std::uint64_t> routed_jobs);

 private:
  const ShardMap* map_;
  RoutePolicy policy_;
  std::vector<std::uint64_t> routed_cores_;  ///< cumulative, never decremented
  std::vector<std::uint64_t> routed_jobs_;
};

}  // namespace dbs::core
