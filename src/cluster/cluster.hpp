// The cluster: a set of nodes with core-granular allocation.
#pragma once

#include <optional>
#include <vector>

#include "cluster/allocation_policy.hpp"
#include "cluster/free_core_index.hpp"
#include "cluster/job_placement_index.hpp"
#include "cluster/node.hpp"
#include "common/types.hpp"

namespace dbs::cluster {

/// Static description of a cluster.
struct ClusterSpec {
  std::size_t node_count = 16;
  CoreCount cores_per_node = 8;
};

class Cluster {
 public:
  explicit Cluster(const ClusterSpec& spec);

  // Nodes hold a pointer into ledger_; copies/moves must rebind it.
  Cluster(const Cluster& other);
  Cluster(Cluster&& other) noexcept;
  Cluster& operator=(const Cluster& other);
  Cluster& operator=(Cluster&& other) noexcept;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] CoreCount total_cores() const { return total_cores_; }
  /// O(1): maintained incrementally by every node mutation.
  [[nodiscard]] CoreCount used_cores() const { return ledger_.used; }
  /// O(1): total minus used minus idle capacity on non-Up nodes.
  [[nodiscard]] CoreCount free_cores() const {
    return total_cores_ - ledger_.used - ledger_.unavailable_free;
  }
  [[nodiscard]] CoreCount cores_per_node() const { return cores_per_node_; }
  /// O(1): idle capacity stranded on non-Up nodes (unallocatable until the
  /// node recovers). total == used + free + unavailable_free.
  [[nodiscard]] CoreCount unavailable_free_cores() const {
    return ledger_.unavailable_free;
  }

  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  /// Attempts to place `cores` for `job` using `policy`. Returns the
  /// placement, or nullopt if fewer than `cores` are free cluster-wide
  /// (in which case nothing is allocated).
  std::optional<Placement> allocate(JobId job, CoreCount cores,
                                    AllocationPolicy policy = AllocationPolicy::Pack);

  /// Torque-style chunked placement (nodes=N:ppn=P): the request is split
  /// into chunks of `ppn` cores (plus one remainder chunk) and every chunk
  /// must fit on a distinct node. Returns nullopt (allocating nothing) when
  /// node-level fragmentation prevents placement even if enough cores are
  /// free in aggregate.
  std::optional<Placement> allocate_chunked(
      JobId job, CoreCount cores, CoreCount ppn,
      AllocationPolicy policy = AllocationPolicy::Pack);

  /// Dry-run of allocate_chunked.
  [[nodiscard]] bool can_allocate_chunked(CoreCount cores, CoreCount ppn) const;

  /// Returns the exact cores of `placement` held by `job`.
  void release(JobId job, const Placement& placement);

  /// Releases everything `job` holds anywhere. Returns the freed placement
  /// (shares in node-id order). O(shares held) via the per-job index.
  Placement release_all(JobId job);

  /// Total cores `job` currently holds across nodes. O(1) via the per-job
  /// index.
  [[nodiscard]] CoreCount held_by(JobId job) const;

  /// The job's current shares sorted by node id, or nullptr if it holds
  /// nothing. O(1) lookup via the per-job index.
  [[nodiscard]] const std::vector<NodeShare>* shares_of(JobId job) const {
    return job_index_.find(job);
  }

  /// Marks a node down (its free cores become unavailable). Jobs' cores on
  /// it remain accounted until released by the caller.
  void set_node_state(NodeId id, NodeState s);

  /// Verifies per-node accounting and that the O(1) aggregates, the
  /// free-core bucket index and the per-job placement index all agree with
  /// the nodes (throws invariant_error on corruption). One pass over the
  /// nodes, one over the bucket words and one over the index: O(nodes +
  /// shares), ~1 us at 128 nodes of 8 cores. BatchSystem runs it after
  /// every run and run_until, so the service pays it per tick and WAL
  /// recovery per logged decision time.
  void check_invariants() const;

 private:
  void bind_nodes();

  /// Best-fit chunk assignment onto distinct nodes via the free-core
  /// index: for each chunk (largest first), the first candidate in policy
  /// order whose bucket is >= the chunk size. Returns node indices per
  /// chunk, or nullopt when placement is impossible. Does not mutate.
  [[nodiscard]] std::optional<std::vector<std::size_t>> fit_chunks(
      const std::vector<CoreCount>& chunks, AllocationPolicy policy) const;

  std::vector<Node> nodes_;
  CoreCount cores_per_node_;
  CoreCount total_cores_ = 0;
  CoreLedger ledger_;
  FreeCoreIndex free_index_;
  JobPlacementIndex job_index_;
};

/// The check behind Cluster::check_invariants(), as a function of the
/// structures it cross-checks: `nodes`, the cluster's `total_cores`, the
/// `ledger` aggregates, the free-core `free_index` and the per-job
/// `job_index`. Tests run it on corrupted copies.
void check_cluster_invariants(const std::vector<Node>& nodes,
                              CoreCount total_cores, const CoreLedger& ledger,
                              const FreeCoreIndex& free_index,
                              const JobPlacementIndex& job_index);

}  // namespace dbs::cluster
