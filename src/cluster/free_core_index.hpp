// Incremental free-core index: nodes bucketed by free_cores().
//
// The cluster keeps one bucket per possible free-core count
// (cores_per_node + 1 buckets; a Down/Offline node has free_cores() == 0
// and therefore lives in bucket 0). Every Node mutation that changes a
// node's free-core count — allocate, release, release_all, set_state —
// moves the node between buckets through the same hook mechanism that
// keeps CoreLedger consistent, so the index is always exact.
//
// Buckets are node-index bitsets rather than linked rings: membership
// moves are O(1), and word scans iterate a bucket in node-id order, which
// is precisely the determinism contract of the old scan allocator
// (order by free-core count, ties by node id). Walking buckets ascending
// reproduces Pack order, descending reproduces Spread order, and the
// any_free set reproduces FirstFit order — all without building or
// sorting a candidate vector per placement.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/node_set.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"

namespace dbs::cluster {

class FreeCoreIndex {
 public:
  FreeCoreIndex() = default;

  /// (Re)builds the index for `node_count` nodes of `cores_per_node`
  /// cores, all initially fully free (the state right after construction).
  void reset(std::size_t node_count, CoreCount cores_per_node) {
    DBS_REQUIRE(cores_per_node > 0, "nodes need at least one core");
    cores_per_node_ = cores_per_node;
    buckets_.assign(static_cast<std::size_t>(cores_per_node) + 1, NodeSet{});
    for (auto& b : buckets_) b.reset(node_count);
    any_free_.reset(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      buckets_[static_cast<std::size_t>(cores_per_node)].insert(i);
      any_free_.insert(i);
    }
  }

  /// Moves node `i` from the `old_free` bucket to the `new_free` bucket.
  /// Called by Node on every free-core change.
  void move(std::size_t i, CoreCount old_free, CoreCount new_free) {
    DBS_ASSERT(old_free >= 0 && old_free <= cores_per_node_,
               "free count out of range");
    DBS_ASSERT(new_free >= 0 && new_free <= cores_per_node_,
               "free count out of range");
    if (old_free == new_free) return;
    buckets_[static_cast<std::size_t>(old_free)].erase(i);
    buckets_[static_cast<std::size_t>(new_free)].insert(i);
    if (old_free == 0)
      any_free_.insert(i);
    else if (new_free == 0)
      any_free_.erase(i);
  }

  [[nodiscard]] CoreCount cores_per_node() const { return cores_per_node_; }

  /// Nodes whose free-core count is exactly `free`.
  [[nodiscard]] const NodeSet& bucket(CoreCount free) const {
    DBS_ASSERT(free >= 0 && free <= cores_per_node_, "no such bucket");
    return buckets_[static_cast<std::size_t>(free)];
  }

  /// Nodes with at least one free core (the FirstFit scan set).
  [[nodiscard]] const NodeSet& any_free() const { return any_free_; }

 private:
  // The invariant check's differential test corrupts state through it.
  friend struct StateCorruptor;

  CoreCount cores_per_node_ = 0;
  std::vector<NodeSet> buckets_;
  NodeSet any_free_;
};

}  // namespace dbs::cluster
