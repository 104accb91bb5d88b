#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.hpp"

namespace dbs::cluster {

Cluster::Cluster(const ClusterSpec& spec) : cores_per_node_(spec.cores_per_node) {
  DBS_REQUIRE(spec.node_count > 0, "cluster needs at least one node");
  DBS_REQUIRE(spec.cores_per_node > 0, "nodes need at least one core");
  // The machine's core count must fit CoreCount; checked before any node
  // is allocated. Dividing keeps the check itself from overflowing.
  const auto max_nodes = static_cast<std::size_t>(
      std::numeric_limits<CoreCount>::max() / spec.cores_per_node);
  DBS_REQUIRE(spec.node_count <= max_nodes,
              "nodes x cores per node overflows the core count");
  total_cores_ = static_cast<CoreCount>(spec.node_count) * spec.cores_per_node;
  nodes_.reserve(spec.node_count);
  for (std::size_t i = 0; i < spec.node_count; ++i)
    nodes_.emplace_back(NodeId{i}, spec.cores_per_node);
  free_index_.reset(spec.node_count, spec.cores_per_node);
  bind_nodes();
}

void Cluster::bind_nodes() {
  for (Node& n : nodes_) n.bind_indexes(&ledger_, &free_index_, &job_index_);
}

Cluster::Cluster(const Cluster& other)
    : nodes_(other.nodes_),
      cores_per_node_(other.cores_per_node_),
      total_cores_(other.total_cores_),
      ledger_(other.ledger_),
      free_index_(other.free_index_),
      job_index_(other.job_index_) {
  bind_nodes();
}

Cluster::Cluster(Cluster&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      cores_per_node_(other.cores_per_node_),
      total_cores_(other.total_cores_),
      ledger_(other.ledger_),
      free_index_(std::move(other.free_index_)),
      job_index_(std::move(other.job_index_)) {
  bind_nodes();
}

Cluster& Cluster::operator=(const Cluster& other) {
  if (this != &other) {
    nodes_ = other.nodes_;
    cores_per_node_ = other.cores_per_node_;
    total_cores_ = other.total_cores_;
    ledger_ = other.ledger_;
    free_index_ = other.free_index_;
    job_index_ = other.job_index_;
    bind_nodes();
  }
  return *this;
}

Cluster& Cluster::operator=(Cluster&& other) noexcept {
  if (this != &other) {
    nodes_ = std::move(other.nodes_);
    cores_per_node_ = other.cores_per_node_;
    total_cores_ = other.total_cores_;
    ledger_ = other.ledger_;
    free_index_ = std::move(other.free_index_);
    job_index_ = std::move(other.job_index_);
    bind_nodes();
  }
  return *this;
}

const Node& Cluster::node(NodeId id) const {
  DBS_REQUIRE(id.valid() && id.value() < nodes_.size(), "unknown node id");
  return nodes_[id.value()];
}

Node& Cluster::node(NodeId id) {
  DBS_REQUIRE(id.valid() && id.value() < nodes_.size(), "unknown node id");
  return nodes_[id.value()];
}

std::optional<Placement> Cluster::allocate(JobId job, CoreCount cores,
                                           AllocationPolicy policy) {
  DBS_REQUIRE(cores > 0, "allocation must be positive");
  if (cores > free_cores()) return std::nullopt;

  // Walk the free-core buckets in policy order instead of building and
  // sorting a candidate vector. Visited nodes are drained completely
  // (except the last), so the bucket mutations caused by Node::allocate
  // only ever clear bits at or before the scan position — the live walk
  // visits exactly the sequence the old scan-and-sort produced (free-core
  // count, then node id).
  Placement placement;
  CoreCount remaining = cores;
  const auto take_from = [&](std::size_t i) {
    Node& n = nodes_[i];
    const CoreCount take = std::min(remaining, n.free_cores());
    n.allocate(job, take);
    placement.shares.push_back({n.id(), take});
    remaining -= take;
  };
  const auto drain_bucket = [&](CoreCount b) {
    const NodeSet& bucket = free_index_.bucket(b);
    for (std::size_t i = bucket.first();
         i != NodeSet::npos && remaining > 0; i = bucket.find_from(i + 1))
      take_from(i);
  };
  switch (policy) {
    case AllocationPolicy::Pack:
      for (CoreCount b = 1; b <= cores_per_node_ && remaining > 0; ++b)
        drain_bucket(b);
      break;
    case AllocationPolicy::Spread:
      for (CoreCount b = cores_per_node_; b >= 1 && remaining > 0; --b)
        drain_bucket(b);
      break;
    case AllocationPolicy::FirstFit: {
      const NodeSet& any = free_index_.any_free();
      for (std::size_t i = any.first();
           i != NodeSet::npos && remaining > 0; i = any.find_from(i + 1))
        take_from(i);
      break;
    }
  }
  DBS_ASSERT(remaining == 0, "free_cores() promised capacity not found");
  return placement;
}

namespace {
/// Chunk sizes for a nodes=N:ppn=P request: full chunks of `ppn`, then the
/// remainder, largest first.
std::vector<CoreCount> chunk_sizes(CoreCount cores, CoreCount ppn) {
  std::vector<CoreCount> chunks(static_cast<std::size_t>(cores / ppn), ppn);
  if (cores % ppn != 0) chunks.push_back(cores % ppn);
  return chunks;
}
}  // namespace

std::optional<std::vector<std::size_t>> Cluster::fit_chunks(
    const std::vector<CoreCount>& chunks, AllocationPolicy policy) const {
  std::vector<std::size_t> picks;
  picks.reserve(chunks.size());
  // cursor[b]: first node index in bucket b not yet considered. Nothing
  // mutates during fitting, so a bucket's picked nodes are exactly those
  // below its cursor: picks always take the lowest remaining id of the
  // bucket they come from, and chunk sizes only shrink (largest first), so
  // a bucket never regains eligible nodes behind its cursor.
  std::vector<std::size_t> cursor(
      static_cast<std::size_t>(cores_per_node_) + 1, 0);
  const auto cur = [&](CoreCount b) -> std::size_t& {
    return cursor[static_cast<std::size_t>(b)];
  };
  const std::size_t exhausted = nodes_.size();
  for (const CoreCount chunk : chunks) {
    std::size_t pick = NodeSet::npos;
    CoreCount pick_bucket = 0;
    switch (policy) {
      case AllocationPolicy::Pack:
        // Fullest fitting node first: lowest bucket >= chunk.
        for (CoreCount b = chunk; b <= cores_per_node_; ++b) {
          const std::size_t i = free_index_.bucket(b).find_from(cur(b));
          if (i == NodeSet::npos) {
            cur(b) = exhausted;
            continue;
          }
          pick = i;
          pick_bucket = b;
          break;
        }
        break;
      case AllocationPolicy::Spread:
        // Emptiest fitting node first: highest bucket >= chunk.
        for (CoreCount b = cores_per_node_; b >= chunk; --b) {
          const std::size_t i = free_index_.bucket(b).find_from(cur(b));
          if (i == NodeSet::npos) {
            cur(b) = exhausted;
            continue;
          }
          pick = i;
          pick_bucket = b;
          break;
        }
        break;
      case AllocationPolicy::FirstFit:
        // Lowest node id across all fitting buckets.
        for (CoreCount b = chunk; b <= cores_per_node_; ++b) {
          const std::size_t i = free_index_.bucket(b).find_from(cur(b));
          cur(b) = (i == NodeSet::npos) ? exhausted : i;
          if (i < pick) {
            pick = i;
            pick_bucket = b;
          }
        }
        break;
    }
    if (pick == NodeSet::npos) return std::nullopt;
    picks.push_back(pick);
    cur(pick_bucket) = pick + 1;
  }
  return picks;
}

std::optional<Placement> Cluster::allocate_chunked(JobId job, CoreCount cores,
                                                   CoreCount ppn,
                                                   AllocationPolicy policy) {
  DBS_REQUIRE(cores > 0, "allocation must be positive");
  DBS_REQUIRE(ppn > 0 && ppn <= cores_per_node_, "invalid ppn");
  const std::vector<CoreCount> chunks = chunk_sizes(cores, ppn);
  const auto picks = fit_chunks(chunks, policy);
  if (!picks) return std::nullopt;

  Placement placement;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    Node& n = nodes_[(*picks)[c]];
    n.allocate(job, chunks[c]);
    placement.shares.push_back({n.id(), chunks[c]});
  }
  return placement;
}

bool Cluster::can_allocate_chunked(CoreCount cores, CoreCount ppn) const {
  DBS_REQUIRE(cores > 0, "query must be positive");
  DBS_REQUIRE(ppn > 0 && ppn <= cores_per_node_, "invalid ppn");
  return fit_chunks(chunk_sizes(cores, ppn), AllocationPolicy::Pack)
      .has_value();
}

void Cluster::release(JobId job, const Placement& placement) {
  for (const auto& share : placement.shares)
    node(share.node).release(job, share.cores);
}

Placement Cluster::release_all(JobId job) {
  Placement freed;
  if (const std::vector<NodeShare>* shares = job_index_.find(job)) {
    // Copy first: releasing mutates the index entry we are reading.
    freed.shares = *shares;
    for (const NodeShare& s : freed.shares)
      nodes_[s.node.value()].release(job, s.cores);
  }
  return freed;
}

CoreCount Cluster::held_by(JobId job) const {
  return job_index_.held_by(job);
}

void Cluster::set_node_state(NodeId id, NodeState s) {
  node(id).set_state(s);
}

namespace {
/// Whether `n` holds exactly `cores` of `job`.
bool holds_exactly(const Node& n, JobId job, CoreCount cores) {
  const auto it = n.held().find(job);
  return it != n.held().end() && it->second == cores;
}
}  // namespace

void Cluster::check_invariants() const {
  check_cluster_invariants(nodes_, total_cores_, ledger_, free_index_,
                           job_index_);
}

void check_cluster_invariants(const std::vector<Node>& nodes,
                              CoreCount total_cores, const CoreLedger& ledger,
                              const FreeCoreIndex& free_index,
                              const JobPlacementIndex& job_index) {
  // Nodes: bounds, the core total and the two ledger sums, each node's own
  // free-core bucket and any_free bit, and the number of (job, node) holds.
  // With those three sums equal, free_cores() = total - used -
  // unavailable_free equals the nodes' free-core sum too.
  CoreCount total_scan = 0;
  CoreCount used_scan = 0;
  CoreCount unavailable_free_scan = 0;
  std::size_t holds = 0;
  for (const Node& n : nodes) {
    const CoreCount used = n.used_cores();
    DBS_ASSERT(used >= 0 && used <= n.total_cores(),
               "node usage out of bounds");
    total_scan += n.total_cores();
    used_scan += used;
    if (!n.available()) unavailable_free_scan += n.total_cores() - used;
    const std::size_t i = n.id().value();
    const CoreCount free = n.free_cores();
    DBS_ASSERT(free_index.bucket(free).test(i),
               "node missing from its free-core bucket");
    DBS_ASSERT(free_index.any_free().test(i) == (free > 0),
               "free-node set diverged from node scan");
    holds += n.job_count();
  }
  DBS_ASSERT(total_scan == total_cores,
             "cluster core total diverged from its nodes");
  DBS_ASSERT(used_scan == ledger.used,
             "incremental used-core aggregate diverged from node scan");
  DBS_ASSERT(unavailable_free_scan == ledger.unavailable_free,
             "incremental unavailable-free aggregate diverged from node scan");

  // Every node is in its own bucket, so as many members as nodes leaves
  // none in a second bucket.
  std::size_t members = 0;
  for (CoreCount b = 0; b <= free_index.cores_per_node(); ++b)
    members += free_index.bucket(b).popcount();
  DBS_ASSERT(members == nodes.size(), "node in a second free-core bucket");

  // Index: each share is a distinct (job, node) pair (strictly ascending
  // nodes within an entry) equal to that node's hold, so as many shares as
  // holds makes the shares exactly the holds.
  std::size_t shares_seen = 0;
  job_index.for_each([&](JobId job, CoreCount total,
                         const std::vector<NodeShare>& shares) {
    DBS_ASSERT(!shares.empty(), "placement index holds an empty entry");
    CoreCount sum = 0;
    for (std::size_t k = 0; k < shares.size(); ++k) {
      const NodeShare& s = shares[k];
      DBS_ASSERT(k == 0 || shares[k - 1].node < s.node,
                 "placement index shares not strictly ascending by node id");
      DBS_ASSERT(s.node.value() < nodes.size() &&
                     holds_exactly(nodes[s.node.value()], job, s.cores),
                 "placement index share diverged from its node's hold");
      sum += s.cores;
    }
    DBS_ASSERT(sum == total, "placement index total diverged from its shares");
    shares_seen += shares.size();
  });
  DBS_ASSERT(shares_seen == holds,
             "placement index shares diverged from the node holds");
}

}  // namespace dbs::cluster
