// Options dbsim and dbsd share: the shard flags, the Maui config file and
// cluster sizing from an SWF header, plus dbsim's per-shard flight
// recorders. A config file that cannot be read or parsed prints its error
// and exits 1.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/sharded_system.hpp"
#include "common/assert.hpp"
#include "common/value.hpp"
#include "config/maui_config.hpp"
#include "core/shard_map.hpp"
#include "obs/recorder/manifest.hpp"
#include "obs/recorder/recorder.hpp"
#include "workload/swf/swf_source.hpp"

#include "flags.hpp"

namespace dbs::tools {

/// The sharding flags dbsim and dbsd share, parsed into `config`.
inline void shard_flags(Flags& flags, batch::ShardConfig& config) {
  flags.integer("--shards", config.shards, 1, "K",
                "split the cluster's nodes into K shards, each scheduled by "
                "its own scheduler");
  flags.choice("--shard-by", config.policy,
               {{"hash", core::RoutePolicy::UserHash},
                {"user", core::RoutePolicy::UserHash},
                {"partition", core::RoutePolicy::Partition},
                {"least", core::RoutePolicy::LeastLoaded},
                {"least-loaded", core::RoutePolicy::LeastLoaded}},
               "route each job to a shard: fnv1a(user) % K, its class name "
               "(part0..partK-1) or the least-loaded shard");
  flags.choice("--shard-map", config.map,
               {{"range", batch::ShardMapKind::Range},
                {"hash", batch::ShardMapKind::Hash}},
               "split the nodes into contiguous ranges or by node-id hash");
  flags.integer("--shard-threads", config.threads, 1, "T",
                "run the shards on T threads (same output for every T)");
}

/// The whole file at `path`; exits 1 when it cannot be opened.
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(1);
  }
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Parses the Maui config at `path` into `out`, printing every issue as
/// `path:line: message`. False when the config has issues.
inline bool load_maui_config(const std::string& path,
                             core::SchedulerConfig& out) {
  const cfg::ParseResult parsed = cfg::parse_maui_config(slurp(path));
  for (const cfg::ParseIssue& issue : parsed.issues)
    std::cerr << path << ":" << issue.line << ": " << issue.message << "\n";
  if (!parsed.ok()) return false;
  out = parsed.config;
  return true;
}

/// Sizes the cluster for an SWF replay: `nodes` == 0 becomes enough nodes
/// for the header's MaxProcs (128 cores when the header has none), and the
/// source caps every job at the cluster's cores. A MaxProcs that no whole
/// number of nodes within CoreCount cores holds throws precondition_error
/// ("SWF header: MaxProcs expects ..., got '...'").
inline void size_cluster_for_swf(wl::swf::SwfSource& source,
                                 std::size_t& nodes,
                                 CoreCount cores_per_node) {
  if (nodes == 0) {
    const std::int64_t max_procs = source.header().max_procs;
    CoreCount total = 128;
    if (max_procs > 0) {
      const value::Integer<CoreCount> fits{
          1, value::largest<CoreCount>() / cores_per_node * cores_per_node};
      const std::string token = std::to_string(max_procs);
      const std::optional<CoreCount> procs = fits.parse(token);
      if (!procs)
        throw precondition_error(
            "SWF header: " +
            value::rejected("MaxProcs", fits.expects(), token));
      total = *procs;
    }
    nodes = static_cast<std::size_t>(
        (static_cast<std::int64_t>(total) + cores_per_node - 1) /
        cores_per_node);
  }
  source.set_max_cores(static_cast<CoreCount>(
      static_cast<std::int64_t>(nodes) * cores_per_node));
}

/// One flight recorder per shard of `cluster` split as `shards` asks (an
/// unsharded run is shard 0), at obs::rec::shard_path(path, k). Each file
/// states its own shard's cores as its capacity, so its utilization tops
/// out at 1. Prints `cannot open <file>` and returns no recorder when a
/// file cannot be created.
inline std::vector<std::unique_ptr<obs::rec::FlightRecorder>> open_recorders(
    const std::string& path, const cluster::ClusterSpec& cluster,
    const batch::ShardConfig& shards) {
  const core::ShardMap map = batch::make_shard_map(cluster, shards);
  std::vector<std::unique_ptr<obs::rec::FlightRecorder>> recorders;
  for (std::size_t k = 0; k < map.shard_count(); ++k) {
    recorders.push_back(std::make_unique<obs::rec::FlightRecorder>());
    const std::string file = obs::rec::shard_path(path, k);
    if (!recorders.back()->open(
            file, static_cast<std::int64_t>(map.shard_cores(k)))) {
      std::cerr << "cannot open " << file << "\n";
      return {};
    }
  }
  return recorders;
}

}  // namespace dbs::tools
