#include "core/shard_map.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dbs::core {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

/// Exact 128-bit products for the least-loaded comparison (a GNU
/// extension; `__extension__` keeps -Wpedantic quiet about it).
__extension__ using u128 = unsigned __int128;

/// Routing hash of a node index: the decimal digits fed through fnv1a64,
/// so the assignment is stable and platform-independent.
std::uint64_t hash_node(std::size_t node) {
  char buf[24];
  const int len = std::snprintf(buf, sizeof buf, "%zu", node);
  return fnv1a64(std::string_view(buf, static_cast<std::size_t>(len)));
}

}  // namespace

ShardMap ShardMap::by_range(const cluster::ClusterSpec& spec,
                            std::size_t shards) {
  DBS_REQUIRE(shards >= 1, "shard map needs at least one shard");
  DBS_REQUIRE(shards <= spec.node_count,
              "more shards than nodes: every shard needs >= 1 node");
  ShardMap map;
  const std::size_t base = spec.node_count / shards;
  const std::size_t extra = spec.node_count % shards;
  for (std::size_t k = 0; k < shards; ++k) {
    ShardSpec shard;
    shard.name = "part" + std::to_string(k);
    shard.cluster.node_count = base + (k < extra ? 1 : 0);
    shard.cluster.cores_per_node = spec.cores_per_node;
    for (std::size_t i = 0; i < shard.cluster.node_count; ++i)
      map.node_to_shard_.push_back(k);
    map.shards_.push_back(std::move(shard));
  }
  return map;
}

ShardMap ShardMap::by_hash(const cluster::ClusterSpec& spec,
                           std::size_t shards) {
  DBS_REQUIRE(shards >= 1, "shard map needs at least one shard");
  ShardMap map;
  map.node_to_shard_.reserve(spec.node_count);
  std::vector<std::size_t> counts(shards, 0);
  for (std::size_t node = 0; node < spec.node_count; ++node) {
    const std::size_t k = hash_node(node) % shards;
    map.node_to_shard_.push_back(k);
    ++counts[k];
  }
  for (std::size_t k = 0; k < shards; ++k) {
    DBS_REQUIRE(counts[k] >= 1,
                "hash shard map left a shard empty; use by_range for K "
                "close to node_count");
    ShardSpec shard;
    shard.name = "part" + std::to_string(k);
    shard.cluster.node_count = counts[k];
    shard.cluster.cores_per_node = spec.cores_per_node;
    map.shards_.push_back(std::move(shard));
  }
  return map;
}

ShardMap ShardMap::by_partitions(std::vector<ShardSpec> parts) {
  DBS_REQUIRE(!parts.empty(), "shard map needs at least one partition");
  ShardMap map;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const ShardSpec& part = parts[k];
    DBS_REQUIRE(!part.name.empty(), "named partitions need non-empty names");
    DBS_REQUIRE(part.cluster.node_count >= 1,
                "every partition needs at least one node");
    for (std::size_t other = 0; other < k; ++other)
      DBS_REQUIRE(parts[other].name != part.name,
                  "duplicate partition name in shard map");
    for (std::size_t i = 0; i < part.cluster.node_count; ++i)
      map.node_to_shard_.push_back(k);
  }
  map.shards_ = std::move(parts);
  return map;
}

const ShardSpec& ShardMap::shard(std::size_t k) const {
  DBS_REQUIRE(k < shards_.size(), "shard index out of range");
  return shards_[k];
}

std::size_t ShardMap::shard_of_node(std::size_t node) const {
  DBS_REQUIRE(node < node_to_shard_.size(), "node index out of range");
  return node_to_shard_[node];
}

std::size_t ShardMap::shard_named(std::string_view name) const {
  for (std::size_t k = 0; k < shards_.size(); ++k)
    if (shards_[k].name == name) return k;
  return npos;
}

CoreCount ShardMap::total_cores() const {
  CoreCount total = 0;
  for (const ShardSpec& s : shards_)
    total += static_cast<CoreCount>(s.cluster.node_count) *
             s.cluster.cores_per_node;
  return total;
}

std::string_view to_string(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::UserHash: return "user";
    case RoutePolicy::Partition: return "partition";
    case RoutePolicy::LeastLoaded: return "least-loaded";
  }
  return "?";
}

ShardRouter::ShardRouter(const ShardMap& map, RoutePolicy policy)
    : map_(&map),
      policy_(policy),
      routed_cores_(map.shard_count(), 0),
      routed_jobs_(map.shard_count(), 0) {}

std::size_t ShardRouter::route(const rms::JobSpec& spec) {
  const std::size_t count = map_->shard_count();
  std::size_t k = 0;
  switch (policy_) {
    case RoutePolicy::UserHash:
      k = fnv1a64(spec.cred.user) % count;
      break;
    case RoutePolicy::Partition:
      k = map_->shard_named(spec.cred.job_class);
      // A class naming no shard falls back to the user hash: deterministic
      // and spreads unpartitioned traffic instead of hot-spotting shard 0.
      if (k == ShardMap::npos) k = fnv1a64(spec.cred.user) % count;
      break;
    case RoutePolicy::LeastLoaded: {
      // argmin over shards of routed_cores / capacity, compared by
      // cross-multiplication in 128 bits so there is no float rounding and
      // no overflow; ties go to the lowest index. Capacity-relative so
      // unequal partitions fill proportionally.
      for (std::size_t cand = 1; cand < count; ++cand) {
        const auto cap = [&](std::size_t s) {
          const cluster::ClusterSpec& c = map_->shard(s).cluster;
          return static_cast<u128>(c.node_count) *
                 static_cast<u128>(c.cores_per_node);
        };
        const u128 lhs = static_cast<u128>(routed_cores_[cand]) * cap(k);
        const u128 rhs = static_cast<u128>(routed_cores_[k]) * cap(cand);
        if (lhs < rhs) k = cand;
      }
      break;
    }
  }
  routed_cores_[k] +=
      static_cast<std::uint64_t>(std::max<CoreCount>(spec.cores, 1));
  ++routed_jobs_[k];
  return k;
}

void ShardRouter::restore(std::vector<std::uint64_t> routed_cores,
                          std::vector<std::uint64_t> routed_jobs) {
  DBS_REQUIRE(routed_cores.size() == map_->shard_count() &&
                  routed_jobs.size() == map_->shard_count(),
              "router restore needs one entry per shard");
  routed_cores_ = std::move(routed_cores);
  routed_jobs_ = std::move(routed_jobs);
}

}  // namespace dbs::core
