// dbsim's per-shard flight recorders: each file states its own shard's
// cores as its capacity, so a shard's utilization curve tops out at 1.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

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

}  // namespace
}  // namespace dbs::tools
