// The static node partition and the deterministic submission router: the
// two halves of the sharding determinism contract. Every property here is
// load-bearing for replay/recovery — a router that routes one job
// differently on a re-run desynchronizes a shard's WAL from its feeder.
#include "core/shard_map.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace dbs::core {
namespace {

rms::JobSpec job(const std::string& user, CoreCount cores,
                 const std::string& job_class = "batch") {
  rms::JobSpec s;
  s.name = "j_" + user;
  s.cred = {user, "grp", "", job_class, ""};
  s.cores = cores;
  s.walltime = Duration::minutes(30);
  return s;
}

cluster::ClusterSpec machine(std::size_t nodes, CoreCount cores_per_node = 8) {
  cluster::ClusterSpec spec;
  spec.node_count = nodes;
  spec.cores_per_node = cores_per_node;
  return spec;
}

TEST(ShardMap, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors; the routing hash must never
  // drift (it is part of the on-disk replay contract).
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ShardMap, ByRangeSplitsContiguouslyRemainderToFirstShards) {
  const ShardMap map = ShardMap::by_range(machine(10), 4);
  ASSERT_EQ(map.shard_count(), 4u);
  EXPECT_EQ(map.shard(0).cluster.node_count, 3u);
  EXPECT_EQ(map.shard(1).cluster.node_count, 3u);
  EXPECT_EQ(map.shard(2).cluster.node_count, 2u);
  EXPECT_EQ(map.shard(3).cluster.node_count, 2u);
  EXPECT_EQ(map.shard(0).name, "part0");
  EXPECT_EQ(map.shard(3).name, "part3");
  EXPECT_EQ(map.total_nodes(), 10u);
  EXPECT_EQ(map.total_cores(), 80);
  // Contiguous ranges: nodes 0-2 -> 0, 3-5 -> 1, 6-7 -> 2, 8-9 -> 3.
  EXPECT_EQ(map.shard_of_node(0), 0u);
  EXPECT_EQ(map.shard_of_node(2), 0u);
  EXPECT_EQ(map.shard_of_node(3), 1u);
  EXPECT_EQ(map.shard_of_node(6), 2u);
  EXPECT_EQ(map.shard_of_node(9), 3u);
  EXPECT_THROW((void)map.shard_of_node(10), precondition_error);
}

TEST(ShardMap, ByRangeRejectsDegenerateCounts) {
  EXPECT_THROW(ShardMap::by_range(machine(4), 0), precondition_error);
  EXPECT_THROW(ShardMap::by_range(machine(4), 5), precondition_error);
  const ShardMap one = ShardMap::by_range(machine(4), 1);
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(one.shard(0).cluster.node_count, 4u);
}

TEST(ShardMap, ByHashCoversEveryNodeExactlyOnceAndIsStable) {
  const ShardMap a = ShardMap::by_hash(machine(64), 4);
  const ShardMap b = ShardMap::by_hash(machine(64), 4);
  ASSERT_EQ(a.shard_count(), 4u);
  std::size_t covered = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_GE(a.shard(k).cluster.node_count, 1u);
    EXPECT_EQ(a.shard(k).cluster.node_count, b.shard(k).cluster.node_count);
    covered += a.shard(k).cluster.node_count;
  }
  EXPECT_EQ(covered, 64u);
  for (std::size_t node = 0; node < 64; ++node)
    EXPECT_EQ(a.shard_of_node(node), b.shard_of_node(node)) << node;
}

TEST(ShardMap, ByPartitionsNamedLookupAndValidation) {
  std::vector<ShardSpec> parts(2);
  parts[0].name = "cpu";
  parts[0].cluster = machine(12, 8);
  parts[1].name = "gpu";
  parts[1].cluster = machine(4, 16);
  const ShardMap map = ShardMap::by_partitions(parts);
  EXPECT_EQ(map.shard_named("cpu"), 0u);
  EXPECT_EQ(map.shard_named("gpu"), 1u);
  EXPECT_EQ(map.shard_named("tpu"), ShardMap::npos);
  EXPECT_EQ(map.total_cores(), 12 * 8 + 4 * 16);
  // Nodes are numbered shard-major in partition order.
  EXPECT_EQ(map.shard_of_node(11), 0u);
  EXPECT_EQ(map.shard_of_node(12), 1u);

  parts[1].name = "cpu";
  EXPECT_THROW(ShardMap::by_partitions(parts), precondition_error);
  parts[1].name = "";
  EXPECT_THROW(ShardMap::by_partitions(parts), precondition_error);
  parts[1].name = "gpu";
  parts[1].cluster.node_count = 0;
  EXPECT_THROW(ShardMap::by_partitions(parts), precondition_error);
  EXPECT_THROW(ShardMap::by_partitions({}), precondition_error);
}

TEST(ShardRouter, EveryJobRoutesToExactlyOneValidShard) {
  const ShardMap map = ShardMap::by_range(machine(16), 4);
  for (const RoutePolicy policy :
       {RoutePolicy::UserHash, RoutePolicy::Partition,
        RoutePolicy::LeastLoaded}) {
    ShardRouter router(map, policy);
    std::uint64_t routed = 0;
    for (int i = 0; i < 500; ++i) {
      const std::size_t k =
          router.route(job("user" + std::to_string(i % 23),
                           static_cast<CoreCount>(1 + i % 16),
                           i % 3 == 0 ? "part2" : "q" + std::to_string(i % 5)));
      ASSERT_LT(k, map.shard_count()) << to_string(policy);
      ++routed;
    }
    std::uint64_t counted = 0;
    for (std::size_t k = 0; k < map.shard_count(); ++k)
      counted += router.routed_jobs(k);
    EXPECT_EQ(counted, routed) << to_string(policy);
  }
}

TEST(ShardRouter, UserHashIsStickyPerUser) {
  const ShardMap map = ShardMap::by_range(machine(16), 4);
  ShardRouter router(map, RoutePolicy::UserHash);
  for (int round = 0; round < 3; ++round)
    for (int u = 0; u < 20; ++u) {
      const std::string user = "user" + std::to_string(u);
      EXPECT_EQ(router.route(job(user, 4)),
                fnv1a64(user) % map.shard_count());
    }
}

TEST(ShardRouter, PartitionPolicyMatchesClassWithUserHashFallback) {
  std::vector<ShardSpec> parts(3);
  parts[0] = {"small", machine(8)};
  parts[1] = {"large", machine(8)};
  parts[2] = {"debug", machine(2)};
  const ShardMap map = ShardMap::by_partitions(parts);
  ShardRouter router(map, RoutePolicy::Partition);
  EXPECT_EQ(router.route(job("alice", 4, "large")), 1u);
  EXPECT_EQ(router.route(job("bob", 4, "debug")), 2u);
  EXPECT_EQ(router.route(job("bob", 4, "small")), 0u);
  // Unknown class: deterministic user-hash spread, not a shard-0 hotspot.
  EXPECT_EQ(router.route(job("carol", 4, "unknown_q")),
            fnv1a64("carol") % 3);
}

TEST(ShardRouter, LeastLoadedDealsEqualJobsRoundRobin) {
  const ShardMap map = ShardMap::by_range(machine(16), 4);
  ShardRouter router(map, RoutePolicy::LeastLoaded);
  for (int i = 0; i < 24; ++i)
    EXPECT_EQ(router.route(job("u" + std::to_string(i), 8)),
              static_cast<std::size_t>(i % 4))
        << i;
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(router.routed_jobs(k), 6u);
    EXPECT_EQ(router.routed_cores()[k], 48u);
  }
}

TEST(ShardRouter, LeastLoadedFillsUnequalPartitionsProportionally) {
  std::vector<ShardSpec> parts(2);
  parts[0] = {"big", machine(12)};    // 96 cores
  parts[1] = {"small", machine(4)};   // 32 cores: 1/4 the capacity
  const ShardMap map = ShardMap::by_partitions(parts);
  ShardRouter router(map, RoutePolicy::LeastLoaded);
  for (int i = 0; i < 64; ++i) router.route(job("u" + std::to_string(i), 4));
  // Capacity-relative argmin: the big partition takes ~3/4 of the stream.
  EXPECT_EQ(router.routed_jobs(0), 48u);
  EXPECT_EQ(router.routed_jobs(1), 16u);
}

TEST(ShardRouter, ZeroCoreJobsStillChargeTheLedger) {
  // A pathological 0-core spec must still advance the least-loaded ledger
  // or a stream of them would pin to shard 0 forever.
  const ShardMap map = ShardMap::by_range(machine(8), 2);
  ShardRouter router(map, RoutePolicy::LeastLoaded);
  EXPECT_EQ(router.route(job("a", 0)), 0u);
  EXPECT_EQ(router.route(job("b", 0)), 1u);
  EXPECT_EQ(router.route(job("c", 0)), 0u);
  EXPECT_EQ(router.routed_cores()[0], 2u);
}

TEST(ShardRouter, RestoredLedgerContinuesTheExactRoutingSequence) {
  // The recovery property: a router reseeded from durable per-shard
  // submit totals routes the suffix of the stream exactly as the
  // never-restarted router would have.
  const ShardMap map = ShardMap::by_range(machine(16), 4);
  std::vector<rms::JobSpec> stream;
  for (int i = 0; i < 200; ++i)
    stream.push_back(job("user" + std::to_string(i % 7),
                         static_cast<CoreCount>(1 + (i * 5) % 12)));

  ShardRouter uninterrupted(map, RoutePolicy::LeastLoaded);
  std::vector<std::size_t> expected;
  for (const auto& s : stream) expected.push_back(uninterrupted.route(s));

  constexpr std::size_t kCut = 113;  // "crash" after 113 routed submits
  ShardRouter before(map, RoutePolicy::LeastLoaded);
  for (std::size_t i = 0; i < kCut; ++i)
    EXPECT_EQ(before.route(stream[i]), expected[i]);

  ShardRouter after(map, RoutePolicy::LeastLoaded);
  std::vector<std::uint64_t> jobs;
  for (std::size_t k = 0; k < map.shard_count(); ++k)
    jobs.push_back(before.routed_jobs(k));
  after.restore(before.routed_cores(), jobs);
  for (std::size_t i = kCut; i < stream.size(); ++i)
    EXPECT_EQ(after.route(stream[i]), expected[i]) << i;
}

TEST(ShardRouter, RejectsAJobWiderThanItsShard) {
  // A job no shard node set can hold would wait forever; the router says
  // so, naming the job, its cores and the shard's, and charges nothing.
  std::vector<ShardSpec> parts(2);
  parts[0] = {"big", machine(4)};    // 32 cores
  parts[1] = {"small", machine(1)};  // 8 cores
  const ShardMap map = ShardMap::by_partitions(parts);
  EXPECT_EQ(map.shard_cores(0), 32u);
  EXPECT_EQ(map.shard_cores(1), 8u);
  ShardRouter router(map, RoutePolicy::Partition);
  EXPECT_EQ(router.route(job("alice", 32, "big")), 0u);
  EXPECT_EQ(router.route(job("bob", 8, "small")), 1u);
  try {
    router.route(job("carol", 9, "small"));
    FAIL() << "a 9-core job was routed to an 8-core shard";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "job j_carol asks for 9 cores but its shard small has 8"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(router.routed_jobs(1), 1u);
  EXPECT_EQ(router.routed_cores()[1], 8u);
  // Every policy checks the shard it picked.
  const ShardMap halves = ShardMap::by_range(machine(8), 2);  // 32 cores each
  for (const RoutePolicy policy :
       {RoutePolicy::UserHash, RoutePolicy::LeastLoaded}) {
    ShardRouter other(halves, policy);
    EXPECT_LT(other.route(job("dave", 32)), 2u) << to_string(policy);
    EXPECT_THROW(other.route(job("erin", 33)), precondition_error)
        << to_string(policy);
  }
}

TEST(ShardRouter, RestoreRejectsWrongArity) {
  const ShardMap map = ShardMap::by_range(machine(8), 2);
  ShardRouter router(map, RoutePolicy::LeastLoaded);
  EXPECT_THROW(router.restore({1, 2, 3}, {1, 2}), precondition_error);
  EXPECT_THROW(router.restore({1, 2}, {1}), precondition_error);
}

}  // namespace
}  // namespace dbs::core
