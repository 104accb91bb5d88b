// The cluster invariant check as it was before the one-pass rewrite, kept
// verbatim as the reference for differential testing (the way
// reference_allocator.hpp keeps the scan allocator). Only the member
// accesses became parameters. It tests every node against every free-core
// bucket and looks each node hold up in the placement index: O(nodes x
// buckets + holds x log shares), with two hash lookups per hold.
// check_cluster_invariants() must reach the same verdict on every state.
#pragma once

#include <algorithm>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/assert.hpp"

namespace dbs::cluster::testing {

inline void reference_check_invariants(const std::vector<Node>& nodes_,
                                       CoreCount total_cores_,
                                       const CoreLedger& ledger_,
                                       const FreeCoreIndex& free_index_,
                                       const JobPlacementIndex& job_index_) {
  const CoreCount cores_per_node_ = free_index_.cores_per_node();
  const auto free_cores = [&] {
    return total_cores_ - ledger_.used - ledger_.unavailable_free;
  };
  CoreCount used_scan = 0;
  CoreCount free_scan = 0;
  CoreCount unavailable_free_scan = 0;
  std::size_t share_scan = 0;
  std::size_t jobs_scan = 0;
  std::size_t index_shares = 0;
  for (const auto& n : nodes_) {
    DBS_ASSERT(n.used_cores() >= 0, "negative node usage");
    DBS_ASSERT(n.used_cores() <= n.total_cores(), "node oversubscribed");
    used_scan += n.used_cores();
    free_scan += n.free_cores();
    if (!n.available()) unavailable_free_scan += n.total_cores() - n.used_cores();
    // Free-core index: every node sits in exactly the bucket matching its
    // current free-core count, and in any_free iff it has free cores.
    const CoreCount free = n.free_cores();
    for (CoreCount b = 0; b <= cores_per_node_; ++b)
      DBS_ASSERT(free_index_.bucket(b).test(n.id().value()) == (b == free),
                 "free-core index bucket diverged from node scan");
    DBS_ASSERT(free_index_.any_free().test(n.id().value()) == (free > 0),
               "free-node set diverged from node scan");
    // Per-job placement index: each node-level hold appears as exactly the
    // same share in the owning job's sorted entry.
    for (const auto& [job, cores] : n.held()) {
      ++share_scan;
      const std::vector<NodeShare>* shares = job_index_.find(job);
      DBS_ASSERT(shares != nullptr, "job missing from placement index");
      auto it = std::lower_bound(
          shares->begin(), shares->end(), n.id(),
          [](const NodeShare& s, NodeId id) { return s.node < id; });
      DBS_ASSERT(it != shares->end() && it->node == n.id() &&
                     it->cores == cores,
                 "placement index share diverged from node scan");
    }
  }
  // The index must hold nothing beyond what the nodes back: per-job totals
  // and sortedness, the global share count, and the job count.
  for (const auto& n : nodes_) {
    for (const auto& [job, cores] : n.held()) {
      const std::vector<NodeShare>* shares = job_index_.find(job);
      if (shares->front().node != n.id()) continue;  // count each job once
      ++jobs_scan;
      DBS_ASSERT(std::is_sorted(shares->begin(), shares->end(),
                                [](const NodeShare& a, const NodeShare& b) {
                                  return a.node < b.node;
                                }),
                 "placement index shares not sorted by node id");
      CoreCount total = 0;
      for (const NodeShare& s : *shares) total += s.cores;
      DBS_ASSERT(total == job_index_.held_by(job),
                 "placement index total diverged from its shares");
      index_shares += shares->size();
    }
  }
  DBS_ASSERT(job_index_.job_count() == jobs_scan,
             "placement index holds jobs the nodes do not");
  DBS_ASSERT(index_shares == share_scan,
             "placement index holds shares the nodes do not");
  DBS_ASSERT(used_scan == ledger_.used,
             "incremental used-core aggregate diverged from node scan");
  DBS_ASSERT(unavailable_free_scan == ledger_.unavailable_free,
             "incremental unavailable-free aggregate diverged from node scan");
  DBS_ASSERT(free_scan == free_cores(),
             "incremental free-core aggregate diverged from node scan");
  DBS_ASSERT(used_scan + free_scan <= total_cores_,
             "cluster accounting mismatch");
}

}  // namespace dbs::cluster::testing
