// Options dbsim and dbsd share: the shard flags, the Maui config file and
// cluster sizing from an SWF header. Each helper prints its own error. A
// bad flag value is a usage error (the tool exits 2); a config file that
// cannot be read or parsed exits 1.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

#include "batch/sharded_system.hpp"
#include "config/maui_config.hpp"
#include "core/shard_map.hpp"
#include "workload/swf/swf_source.hpp"

namespace dbs::tools {

/// `--shard-by` as a routing policy, or nullopt (reported) when unknown.
inline std::optional<core::RoutePolicy> shard_by_flag(std::string_view by) {
  if (by == "hash" || by == "user") return core::RoutePolicy::UserHash;
  if (by == "partition") return core::RoutePolicy::Partition;
  if (by == "least" || by == "least-loaded")
    return core::RoutePolicy::LeastLoaded;
  std::cerr << "unknown --shard-by '" << by
            << "' (expected hash, user, partition or least)\n";
  return std::nullopt;
}

/// `--shard-map` as a node map, or nullopt (reported) when unknown.
inline std::optional<batch::ShardMapKind> shard_map_flag(
    std::string_view kind) {
  if (kind == "range") return batch::ShardMapKind::Range;
  if (kind == "hash") return batch::ShardMapKind::Hash;
  std::cerr << "unknown --shard-map '" << kind
            << "' (expected range or hash)\n";
  return std::nullopt;
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
/// source caps every job at the cluster's cores.
inline void size_cluster_for_swf(wl::swf::SwfSource& source,
                                 std::size_t& nodes,
                                 CoreCount cores_per_node) {
  if (nodes == 0) {
    const std::int64_t max_procs = source.header().max_procs;
    const CoreCount total =
        max_procs > 0 ? static_cast<CoreCount>(max_procs) : 128;
    nodes = static_cast<std::size_t>((total + cores_per_node - 1) /
                                     cores_per_node);
  }
  source.set_max_cores(static_cast<CoreCount>(
      static_cast<std::int64_t>(nodes) * cores_per_node));
}

}  // namespace dbs::tools
