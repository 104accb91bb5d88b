// Options dbsim and dbsd share: the per-shard flight recorders (each file
// states its own shard's cores as its capacity, so a shard's utilization
// curve tops out at 1) and cluster sizing from an SWF header.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "obs/recorder/reader.hpp"
#include "run_options.hpp"

namespace dbs::tools {
namespace {

namespace fs = std::filesystem;

TEST(OpenRecorders, EachShardStatesItsOwnCores) {
  const fs::path dir = fs::temp_directory_path() /
                       ("dbs_open_recorders_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "run.dbsr").string();

  cluster::ClusterSpec cluster;
  cluster.node_count = 10;
  cluster.cores_per_node = 8;
  for (const batch::ShardMapKind kind :
       {batch::ShardMapKind::Range, batch::ShardMapKind::Hash}) {
    for (const std::size_t shards : {1u, 3u}) {
      batch::ShardConfig config;
      config.shards = shards;
      config.map = kind;
      const core::ShardMap map = batch::make_shard_map(cluster, config);
      auto recorders = open_recorders(path, cluster, config);
      ASSERT_EQ(recorders.size(), shards);
      for (auto& recorder : recorders) ASSERT_TRUE(recorder->finalize());
      for (std::size_t k = 0; k < shards; ++k) {
        obs::rec::RecordReader reader;
        const std::string file = obs::rec::shard_path(path, k);
        ASSERT_TRUE(reader.open(file)) << reader.error();
        EXPECT_EQ(reader.capacity(),
                  static_cast<std::int64_t>(map.shard_cores(k)))
            << file;
      }
    }
  }
  // Range shards of 10 nodes differ in size: 4, 3 and 3 nodes.
  batch::ShardConfig three;
  three.shards = 3;
  const core::ShardMap range = batch::make_shard_map(cluster, three);
  EXPECT_EQ(range.shard_cores(0), 32u);
  EXPECT_EQ(range.shard_cores(2), 24u);
  fs::remove_all(dir);
}

/// The nodes of `cores_per_node` cores size_cluster_for_swf picks for a
/// one-job trace headed `; MaxProcs: <max_procs>` when given `nodes`.
std::size_t sized_nodes(const std::string& max_procs, std::size_t nodes,
                        CoreCount cores_per_node = 16) {
  std::istringstream in("; MaxProcs: " + max_procs +
                        "\n1 0 -1 100 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1\n");
  wl::swf::SwfSource source(in, {});
  size_cluster_for_swf(source, nodes, cores_per_node);
  return nodes;
}

TEST(SizeClusterForSwf, NodesZeroSizesFromMaxProcsInWholeNodes) {
  EXPECT_EQ(sized_nodes("100", 0), 7u);
  EXPECT_EQ(sized_nodes("-1", 0), 8u);  // unknown: 128 cores
  // The most cores whole 16-core nodes hold within CoreCount, and with
  // 10-core nodes, where rounding up used to overflow.
  EXPECT_EQ(sized_nodes("2147483632", 0), 134217727u);
  EXPECT_EQ(sized_nodes("2147483640", 0, 10), 214748364u);
  // Given nodes, the header is not read.
  EXPECT_EQ(sized_nodes("4294967312", 3), 3u);
}

// A MaxProcs past what a cluster of CoreCount cores holds is rejected
// naming the header field; it used to wrap (4294967312 ran as 16 cores).
TEST(SizeClusterForSwf, RejectsAMaxProcsNoClusterHolds) {
  for (const std::string bad : {"2147483633", "2147483647", "4294967312"}) {
    try {
      sized_nodes(bad, 0);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const precondition_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "SWF header: MaxProcs expects an integer in [1, 2147483632], "
                "got '" + bad + "'");
    }
  }
}

}  // namespace
}  // namespace dbs::tools
