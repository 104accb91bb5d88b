// Per-job placement index: JobId -> the node shares the job holds.
//
// Maintained by the same Node-mutation hooks that keep CoreLedger and the
// free-core index consistent, so Cluster::held_by is O(1) and
// Cluster::release_all touches only the nodes the job actually occupies
// instead of scanning every node. Share lists are kept sorted by node id,
// matching the node-scan order the old release_all returned.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "cluster/allocation_policy.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"

namespace dbs::cluster {

class JobPlacementIndex {
 public:
  /// Applies a per-node delta for `job` on `node` (positive on allocate,
  /// negative on release). Erases empty shares and empty jobs.
  void apply(JobId job, NodeId node, CoreCount delta) {
    DBS_ASSERT(delta != 0, "no-op share delta");
    Entry& e = entries_[job];
    e.total += delta;
    DBS_ASSERT(e.total >= 0, "job share total went negative");
    auto it = std::lower_bound(
        e.shares.begin(), e.shares.end(), node,
        [](const NodeShare& s, NodeId n) { return s.node < n; });
    if (it != e.shares.end() && it->node == node) {
      it->cores += delta;
      DBS_ASSERT(it->cores >= 0, "node share went negative");
      if (it->cores == 0) e.shares.erase(it);
    } else {
      DBS_ASSERT(delta > 0, "releasing a share the index does not know");
      e.shares.insert(it, NodeShare{node, delta});
    }
    if (e.shares.empty()) {
      DBS_ASSERT(e.total == 0, "empty share list with nonzero total");
      entries_.erase(job);
    }
  }

  /// Total cores `job` holds cluster-wide. O(1).
  [[nodiscard]] CoreCount held_by(JobId job) const {
    auto it = entries_.find(job);
    return it == entries_.end() ? 0 : it->second.total;
  }

  /// The job's shares sorted by node id, or nullptr if it holds nothing.
  [[nodiscard]] const std::vector<NodeShare>* find(JobId job) const {
    auto it = entries_.find(job);
    return it == entries_.end() ? nullptr : &it->second.shares;
  }

  [[nodiscard]] std::size_t job_count() const { return entries_.size(); }

  /// Calls `visit(job, total, shares)` once per entry, in unspecified
  /// order. Read-only: the invariant check walks the index with it.
  template <class Visit>
  void for_each(Visit&& visit) const {
    for (const auto& [job, e] : entries_) visit(job, e.total, e.shares);
  }

  void clear() { entries_.clear(); }

 private:
  // The invariant check's differential test corrupts state through it.
  friend struct StateCorruptor;

  struct Entry {
    CoreCount total = 0;
    std::vector<NodeShare> shares;  ///< sorted by node id
  };
  std::unordered_map<JobId, Entry> entries_;
};

}  // namespace dbs::cluster
