// A compute node: a fixed number of cores, tracked per owning job.
#pragma once

#include <unordered_map>

#include "common/types.hpp"

namespace dbs::cluster {

class FreeCoreIndex;
class JobPlacementIndex;

enum class NodeState { Up, Down, Offline };

/// Cluster-wide core aggregates, maintained incrementally by every node
/// mutation so Cluster::free_cores()/used_cores() are O(1) instead of a
/// full node scan on the scheduler's hot path.
struct CoreLedger {
  /// Sum of used cores across all nodes, whatever their state.
  CoreCount used = 0;
  /// Sum of (total - used) over nodes that are not Up: capacity that is
  /// neither used nor allocatable.
  CoreCount unavailable_free = 0;
};

class Node {
 public:
  Node(NodeId id, CoreCount total_cores);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] CoreCount total_cores() const { return total_; }
  [[nodiscard]] CoreCount used_cores() const { return used_; }
  [[nodiscard]] CoreCount free_cores() const;
  [[nodiscard]] NodeState state() const { return state_; }
  [[nodiscard]] bool available() const { return state_ == NodeState::Up; }

  void set_state(NodeState s);

  /// Gives `cores` of this node to `job` (additive if the job already holds
  /// cores here). Precondition: node is up and has enough free cores.
  void allocate(JobId job, CoreCount cores);

  /// Returns `cores` held by `job`; precondition: the job holds at least
  /// that many here.
  void release(JobId job, CoreCount cores);

  /// Returns everything `job` holds here (no-op if nothing held).
  CoreCount release_all(JobId job);

  /// Cores currently held by `job` on this node.
  [[nodiscard]] CoreCount held_by(JobId job) const;

  /// Number of distinct jobs with cores on this node.
  [[nodiscard]] std::size_t job_count() const { return held_.size(); }

  /// The jobs holding cores here (iteration order is unspecified; callers
  /// needing determinism must sort, e.g. by job id).
  [[nodiscard]] const std::unordered_map<JobId, CoreCount>& held() const {
    return held_;
  }

  /// Attaches the cluster's incremental structures: the aggregate ledger,
  /// the free-core bucket index and the per-job placement index. Every
  /// subsequent mutation (including direct ones, e.g. the server failing a
  /// node) keeps all three consistent. The node's current contribution
  /// must already be counted. Any pointer may be null (standalone nodes in
  /// unit tests bind nothing).
  void bind_indexes(CoreLedger* ledger, FreeCoreIndex* free_index,
                    JobPlacementIndex* job_index) {
    ledger_ = ledger;
    free_index_ = free_index;
    job_index_ = job_index;
  }

 private:
  // The invariant check's differential test corrupts state through it.
  friend struct StateCorruptor;

  /// Re-buckets this node after a free-core change.
  void reindex(CoreCount old_free);

  NodeId id_;
  CoreCount total_;
  CoreCount used_ = 0;
  NodeState state_ = NodeState::Up;
  std::unordered_map<JobId, CoreCount> held_;
  CoreLedger* ledger_ = nullptr;          ///< owned by the enclosing Cluster
  FreeCoreIndex* free_index_ = nullptr;   ///< owned by the enclosing Cluster
  JobPlacementIndex* job_index_ = nullptr;  ///< owned by the enclosing Cluster
};

}  // namespace dbs::cluster
