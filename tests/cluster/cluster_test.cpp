#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/assert.hpp"

namespace dbs::cluster {
namespace {

Cluster make(std::size_t nodes = 4, CoreCount cpn = 8) {
  return Cluster(ClusterSpec{nodes, cpn});
}

TEST(Cluster, Capacity) {
  const Cluster c = make(16, 8);
  EXPECT_EQ(c.total_cores(), 128);
  EXPECT_EQ(c.free_cores(), 128);
  EXPECT_EQ(c.node_count(), 16u);
  EXPECT_EQ(c.cores_per_node(), 8);
}

TEST(Cluster, AllocateWithinOneNode) {
  Cluster c = make();
  const auto p = c.allocate(JobId{1}, 5);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->total_cores(), 5);
  EXPECT_EQ(p->node_count(), 1u);
  EXPECT_EQ(c.free_cores(), 27);
  EXPECT_EQ(c.held_by(JobId{1}), 5);
}

TEST(Cluster, AllocateSpansNodes) {
  Cluster c = make(4, 8);
  const auto p = c.allocate(JobId{1}, 20);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->total_cores(), 20);
  EXPECT_GE(p->node_count(), 3u);
}

TEST(Cluster, AllocateFailsWithoutCapacityAndChangesNothing) {
  Cluster c = make(2, 8);
  ASSERT_TRUE(c.allocate(JobId{1}, 10).has_value());
  EXPECT_FALSE(c.allocate(JobId{2}, 7).has_value());
  EXPECT_EQ(c.free_cores(), 6);
  EXPECT_EQ(c.held_by(JobId{2}), 0);
}

TEST(Cluster, PackPolicyFillsBusiestFirst) {
  Cluster c = make(3, 8);
  ASSERT_TRUE(c.allocate(JobId{1}, 6).has_value());  // node with 2 free
  const auto p = c.allocate(JobId{2}, 2, AllocationPolicy::Pack);
  ASSERT_TRUE(p.has_value());
  // Pack should reuse the partially filled node.
  EXPECT_EQ(p->shares[0].node, c.nodes()[0].id());
}

TEST(Cluster, SpreadPolicyUsesEmptiestFirst) {
  Cluster c = make(3, 8);
  ASSERT_TRUE(c.allocate(JobId{1}, 6).has_value());
  const auto p = c.allocate(JobId{2}, 2, AllocationPolicy::Spread);
  ASSERT_TRUE(p.has_value());
  EXPECT_NE(p->shares[0].node, c.nodes()[0].id());
}

TEST(Cluster, ReleaseExactPlacement) {
  Cluster c = make();
  const auto p = c.allocate(JobId{1}, 12);
  ASSERT_TRUE(p.has_value());
  c.release(JobId{1}, *p);
  EXPECT_EQ(c.free_cores(), 32);
  EXPECT_EQ(c.held_by(JobId{1}), 0);
}

TEST(Cluster, ReleaseAllCollectsEverything) {
  Cluster c = make();
  ASSERT_TRUE(c.allocate(JobId{1}, 12).has_value());
  ASSERT_TRUE(c.allocate(JobId{1}, 4).has_value());
  const Placement freed = c.release_all(JobId{1});
  EXPECT_EQ(freed.total_cores(), 16);
  EXPECT_EQ(c.free_cores(), 32);
}

TEST(Cluster, DownNodeReducesFreeCores) {
  Cluster c = make(4, 8);
  c.set_node_state(NodeId{0}, NodeState::Down);
  EXPECT_EQ(c.free_cores(), 24);
  const auto p = c.allocate(JobId{1}, 24);
  ASSERT_TRUE(p.has_value());
  for (const auto& share : p->shares) EXPECT_NE(share.node, NodeId{0});
}

TEST(Cluster, InvariantsHold) {
  Cluster c = make();
  ASSERT_TRUE(c.allocate(JobId{1}, 13).has_value());
  EXPECT_NO_THROW(c.check_invariants());
}

TEST(Cluster, PlacementMerge) {
  Placement a{{{NodeId{0}, 4}, {NodeId{1}, 8}}};
  const Placement b{{{NodeId{1}, 2}, {NodeId{2}, 1}}};
  a.merge(b);
  EXPECT_EQ(a.total_cores(), 15);
  EXPECT_EQ(a.shares.size(), 3u);
  EXPECT_EQ(a.shares[1].cores, 10);
}

TEST(Cluster, PlacementMergeCanonicalizesUnsortedInputs) {
  // Placements from the allocator arrive in policy order, not id order;
  // merge must still combine per-node shares and emit a sorted result.
  Placement a{{{NodeId{3}, 2}, {NodeId{0}, 4}}};
  const Placement b{{{NodeId{2}, 1}, {NodeId{3}, 5}}};
  a.merge(b);
  ASSERT_EQ(a.shares.size(), 3u);
  EXPECT_EQ(a.shares[0], (NodeShare{NodeId{0}, 4}));
  EXPECT_EQ(a.shares[1], (NodeShare{NodeId{2}, 1}));
  EXPECT_EQ(a.shares[2], (NodeShare{NodeId{3}, 7}));
}

TEST(Cluster, SelectReleaseSmallestShareFastPath) {
  // The smallest share covers the request: released from that node alone,
  // exactly as the full sorted walk would.
  const Placement p{{{NodeId{0}, 8}, {NodeId{1}, 3}, {NodeId{2}, 5}}};
  const Placement freed = p.select_release(2);
  ASSERT_EQ(freed.shares.size(), 1u);
  EXPECT_EQ(freed.shares[0], (NodeShare{NodeId{1}, 2}));
  const Placement spill = p.select_release(7);
  ASSERT_EQ(spill.shares.size(), 2u);
  EXPECT_EQ(spill.shares[0], (NodeShare{NodeId{1}, 3}));
  EXPECT_EQ(spill.shares[1], (NodeShare{NodeId{2}, 4}));
}

TEST(Cluster, ReleaseAllReturnsSharesInNodeIdOrder) {
  Cluster c = make(4, 8);
  // Spread scatters the job across nodes 3, 2, 1 (emptiest-first ties
  // break ascending, all equal => 0,1,2); use two jobs to force a
  // non-trivial order.
  ASSERT_TRUE(c.allocate(JobId{9}, 4).has_value());
  ASSERT_TRUE(c.allocate(JobId{1}, 18, AllocationPolicy::Spread).has_value());
  const Placement freed = c.release_all(JobId{1});
  EXPECT_EQ(freed.total_cores(), 18);
  for (std::size_t i = 1; i < freed.shares.size(); ++i)
    EXPECT_LT(freed.shares[i - 1].node, freed.shares[i].node);
  EXPECT_EQ(c.held_by(JobId{1}), 0);
  EXPECT_EQ(c.held_by(JobId{9}), 4);
}

TEST(Cluster, SharesOfExposesPerJobIndex) {
  Cluster c = make(4, 8);
  EXPECT_EQ(c.shares_of(JobId{1}), nullptr);
  ASSERT_TRUE(c.allocate(JobId{1}, 12).has_value());
  const auto* shares = c.shares_of(JobId{1});
  ASSERT_NE(shares, nullptr);
  CoreCount total = 0;
  for (const NodeShare& s : *shares) total += s.cores;
  EXPECT_EQ(total, 12);
  c.release_all(JobId{1});
  EXPECT_EQ(c.shares_of(JobId{1}), nullptr);
}

TEST(Cluster, UnknownNodeRejected) {
  Cluster c = make(2, 8);
  EXPECT_THROW((void)c.node(NodeId{5}), precondition_error);
}

TEST(Cluster, RejectsCoreCountOverflow) {
  // 300,000 nodes of 10,000 cores is 3e9 cores, past CoreCount's range;
  // the constructor must refuse before allocating any node.
  EXPECT_THROW(make(300000, 10000), precondition_error);
  // One node past the largest machine that fits: 2 x 2^30 = 2^31 cores.
  EXPECT_THROW(make(2, CoreCount{1} << 30), precondition_error);
  // A node count whose product would overflow 64 bits too.
  EXPECT_THROW(make(std::numeric_limits<std::size_t>::max(), 8),
               precondition_error);
}

}  // namespace
}  // namespace dbs::cluster
