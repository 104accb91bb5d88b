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

void Cluster::check_invariants() const {
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

}  // namespace dbs::cluster
