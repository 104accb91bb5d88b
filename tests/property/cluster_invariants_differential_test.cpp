// Differential test of the one-pass cluster invariant check against the
// check it replaced (reference_invariants.hpp). Seeded random allocate,
// release and node-state steps build consistent states through the Node
// hooks, exactly as a Cluster mutates; each state is then copied and one
// fault injected per copy. Both checks must pass every consistent state
// and both must throw invariant_error on every corrupted one, and every
// fault kind must occur. Each assertion of the new check is the only one
// that catches some kind, so deleting any assertion fails this test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "reference_invariants.hpp"

namespace dbs::cluster {

/// Raw access to the private state the invariant check reads.
struct StateCorruptor {
  static NodeSet& bucket(FreeCoreIndex& index, CoreCount free) {
    return index.buckets_[static_cast<std::size_t>(free)];
  }
  static NodeSet& any_free(FreeCoreIndex& index) { return index.any_free_; }
  static CoreCount& used(Node& n) { return n.used_; }
  static CoreCount& total(JobPlacementIndex& index, JobId job) {
    return index.entries_.at(job).total;
  }
  static std::vector<NodeShare>& shares(JobPlacementIndex& index, JobId job) {
    return index.entries_.at(job).shares;
  }
  static void add_empty_entry(JobPlacementIndex& index, JobId job) {
    (void)index.entries_[job];
  }
};

namespace {

/// The four structures a Cluster keeps, bound the way Cluster binds them.
struct World {
  World(std::size_t node_count, CoreCount cores_per_node)
      : total_cores(static_cast<CoreCount>(node_count) * cores_per_node) {
    nodes.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i)
      nodes.emplace_back(NodeId{i}, cores_per_node);
    free_index.reset(node_count, cores_per_node);
    for (Node& n : nodes) n.bind_indexes(&ledger, &free_index, &job_index);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::vector<Node> nodes;
  CoreCount total_cores;
  CoreLedger ledger;
  FreeCoreIndex free_index;
  JobPlacementIndex job_index;
};

/// A detached copy to corrupt. Its nodes still point at the World's
/// indexes, so it is only read (and written through StateCorruptor).
struct Copy {
  explicit Copy(const World& w)
      : nodes(w.nodes),
        total_cores(w.total_cores),
        ledger(w.ledger),
        free_index(w.free_index),
        job_index(w.job_index) {}

  std::vector<Node> nodes;
  CoreCount total_cores;
  CoreLedger ledger;
  FreeCoreIndex free_index;
  JobPlacementIndex job_index;
};

enum class Fault {
  BucketMissing,      // a node erased from its own bucket
  BucketExtra,        // a node also inserted into another bucket
  BucketMoved,        // a node moved to another bucket
  AnyFreeFlipped,     // any_free wrong for one node
  LedgerUsed,         // ledger.used off by one
  LedgerUnavailable,  // ledger.unavailable_free off by one
  TotalCores,         // the cluster's core total off by one
  NodeUsage,          // a down node's usage out of bounds, ledger following
  ShareCores,         // a share's cores off by one, entry total following
  ShareMissing,       // a share dropped, entry total following
  ShareStray,         // a share on a node that holds none of the job
  SharesUnordered,    // two neighbouring shares swapped
  EntryTotal,         // an entry total off by one
  EmptyEntry,         // an entry with no shares
};
constexpr std::size_t kFaults = 14;

const char* fault_name(Fault f) {
  static constexpr std::array<const char*, kFaults> names = {
      "BucketMissing", "BucketExtra",     "BucketMoved", "AnyFreeFlipped",
      "LedgerUsed",    "LedgerUnavailable", "TotalCores", "NodeUsage",
      "ShareCores",    "ShareMissing",    "ShareStray",  "SharesUnordered",
      "EntryTotal",    "EmptyEntry"};
  return names[static_cast<std::size_t>(f)];
}

template <class T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.next_below(v.size())];
}

std::vector<JobId> index_jobs(const JobPlacementIndex& index) {
  std::vector<JobId> jobs;
  index.for_each([&](JobId job, CoreCount, const std::vector<NodeShare>&) {
    jobs.push_back(job);
  });
  std::sort(jobs.begin(), jobs.end());  // map order is not part of the seed
  return jobs;
}

/// Injects `fault` into `c`. Returns false when the state offers no target
/// (no down node, no entry with two shares, ...).
bool inject(Fault fault, Copy& c, Rng& rng) {
  const std::size_t node_count = c.nodes.size();
  const CoreCount cpn = c.free_index.cores_per_node();
  const auto other_bucket = [&](CoreCount own) {
    auto b = static_cast<CoreCount>(rng.next_int(0, cpn - 1));
    return b >= own ? b + 1 : b;
  };
  const std::vector<JobId> jobs = index_jobs(c.job_index);
  std::vector<JobId> multi_share;
  for (const JobId j : jobs)
    if (c.job_index.find(j)->size() >= 2) multi_share.push_back(j);

  switch (fault) {
    case Fault::BucketMissing: {
      const std::size_t i = rng.next_below(node_count);
      StateCorruptor::bucket(c.free_index, c.nodes[i].free_cores()).erase(i);
      return true;
    }
    case Fault::BucketExtra: {
      const std::size_t i = rng.next_below(node_count);
      const CoreCount other = other_bucket(c.nodes[i].free_cores());
      StateCorruptor::bucket(c.free_index, other).insert(i);
      return true;
    }
    case Fault::BucketMoved: {
      const std::size_t i = rng.next_below(node_count);
      const CoreCount own = c.nodes[i].free_cores();
      StateCorruptor::bucket(c.free_index, own).erase(i);
      StateCorruptor::bucket(c.free_index, other_bucket(own)).insert(i);
      return true;
    }
    case Fault::AnyFreeFlipped: {
      const std::size_t i = rng.next_below(node_count);
      NodeSet& any = StateCorruptor::any_free(c.free_index);
      if (any.test(i))
        any.erase(i);
      else
        any.insert(i);
      return true;
    }
    case Fault::LedgerUsed:
      c.ledger.used += rng.next_double() < 0.5 ? 1 : -1;
      return true;
    case Fault::LedgerUnavailable:
      c.ledger.unavailable_free += rng.next_double() < 0.5 ? 1 : -1;
      return true;
    case Fault::TotalCores:
      c.total_cores += rng.next_double() < 0.5 ? 1 : -1;
      return true;
    case Fault::NodeUsage: {
      // Node hooks keep the ledger in step with the node, so a node driven
      // past its bounds by a buggy mutation leaves the sums consistent.
      std::vector<std::size_t> down;
      for (std::size_t i = 0; i < node_count; ++i)
        if (!c.nodes[i].available()) down.push_back(i);
      if (down.empty()) return false;
      Node& n = c.nodes[pick(rng, down)];
      const CoreCount target =
          rng.next_double() < 0.5 ? n.total_cores() + 1 : -1;
      const CoreCount delta = target - n.used_cores();
      StateCorruptor::used(n) = target;
      c.ledger.used += delta;
      c.ledger.unavailable_free -= delta;
      return true;
    }
    case Fault::ShareCores: {
      if (jobs.empty()) return false;
      const JobId job = pick(rng, jobs);
      const NodeShare s = pick(rng, *c.job_index.find(job));
      const bool down = s.cores > 1 && rng.next_double() < 0.5;
      c.job_index.apply(job, s.node, down ? -1 : 1);
      return true;
    }
    case Fault::ShareMissing: {
      if (jobs.empty()) return false;
      const JobId job = pick(rng, jobs);
      const NodeShare s = pick(rng, *c.job_index.find(job));
      c.job_index.apply(job, s.node, -s.cores);
      return true;
    }
    case Fault::ShareStray: {
      if (jobs.empty()) return false;
      const JobId job = pick(rng, jobs);
      std::vector<std::size_t> free_of_job;
      for (std::size_t i = 0; i < node_count; ++i)
        if (c.nodes[i].held_by(job) == 0) free_of_job.push_back(i);
      if (free_of_job.empty()) return false;
      c.job_index.apply(job, NodeId{pick(rng, free_of_job)},
                        static_cast<CoreCount>(rng.next_int(1, 3)));
      return true;
    }
    case Fault::SharesUnordered: {
      if (multi_share.empty()) return false;
      std::vector<NodeShare>& shares =
          StateCorruptor::shares(c.job_index, pick(rng, multi_share));
      const std::size_t k = rng.next_below(shares.size() - 1);
      std::swap(shares[k], shares[k + 1]);
      return true;
    }
    case Fault::EntryTotal: {
      if (jobs.empty()) return false;
      StateCorruptor::total(c.job_index, pick(rng, jobs)) +=
          rng.next_double() < 0.5 ? 1 : -1;
      return true;
    }
    case Fault::EmptyEntry:
      StateCorruptor::add_empty_entry(c.job_index, JobId{1u << 20});
      return true;
  }
  return false;
}

/// "pass", or the invariant_error message. Any other exception escapes.
template <class Check>
std::string verdict(Check check, const Copy& c) {
  try {
    check(c.nodes, c.total_cores, c.ledger, c.free_index, c.job_index);
    return "pass";
  } catch (const invariant_error& e) {
    return e.what();
  }
}

/// One random mutation through the Node API, as Cluster performs them.
void step(World& w, Rng& rng, std::uint64_t job_pool) {
  const std::size_t node_count = w.nodes.size();
  Node& n = w.nodes[rng.next_below(node_count)];
  const auto op = rng.next_int(0, 99);
  if (op < 50) {
    if (n.free_cores() == 0) return;
    n.allocate(JobId{rng.next_below(job_pool)},
               static_cast<CoreCount>(rng.next_int(1, n.free_cores())));
  } else if (op < 85) {
    if (n.job_count() == 0) return;
    std::vector<std::pair<JobId, CoreCount>> held(n.held().begin(),
                                                  n.held().end());
    std::sort(held.begin(), held.end());
    const auto [job, cores] = pick(rng, held);
    if (rng.next_double() < 0.5)
      n.release(job, static_cast<CoreCount>(rng.next_int(1, cores)));
    else
      (void)n.release_all(job);
  } else {
    const auto s = rng.next_int(0, 5);
    n.set_state(s < 4 ? NodeState::Up
                      : (s == 4 ? NodeState::Down : NodeState::Offline));
  }
}

class ClusterInvariantsDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterInvariantsDifferential, OnePassCheckAgreesWithReference) {
  Rng rng(GetParam());
  std::array<int, kFaults> injected{};
  for (int world = 0; world < 6; ++world) {
    // Up to 150 nodes: bitsets of one to three words.
    const auto node_count = static_cast<std::size_t>(rng.next_int(2, 150));
    const auto cores_per_node = static_cast<CoreCount>(rng.next_int(1, 12));
    const std::uint64_t job_pool = node_count / 2 + 2;
    World w(node_count, cores_per_node);
    for (int s = 0; s < 300; ++s) {
      step(w, rng, job_pool);
      const Copy clean(w);
      ASSERT_EQ(verdict(testing::reference_check_invariants, clean), "pass")
          << "world " << world << " step " << s;
      ASSERT_EQ(verdict(check_cluster_invariants, clean), "pass")
          << "world " << world << " step " << s;
      for (std::size_t f = 0; f < kFaults; ++f) {
        const auto fault = static_cast<Fault>(f);
        Copy bad(w);
        if (!inject(fault, bad, rng)) continue;
        ++injected[f];
        EXPECT_NE(verdict(testing::reference_check_invariants, bad), "pass")
            << fault_name(fault) << " missed by the reference, world "
            << world << " step " << s;
        EXPECT_NE(verdict(check_cluster_invariants, bad), "pass")
            << fault_name(fault) << " missed by the one-pass check, world "
            << world << " step " << s;
      }
    }
  }
  for (std::size_t f = 0; f < kFaults; ++f)
    EXPECT_GT(injected[f], 0) << fault_name(static_cast<Fault>(f))
                              << " never injected";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterInvariantsDifferential,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace dbs::cluster
