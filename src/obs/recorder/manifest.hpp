// Manifest for sharded recordings.
//
// A sharded run gives every shard its own recorder (concurrent writers to
// one file would interleave records); the manifest is the index-merge
// artifact tying them back together: a small JSON file next to the
// per-shard record files listing each shard's path, record count and time
// range, written in shard order so tooling can iterate shards
// deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dbs::obs::rec {

struct ManifestShard {
  std::string path;  ///< record file, relative to the manifest
  std::size_t replication = 0;  ///< shard index
  std::uint64_t records = 0;
  std::int64_t first_t_us = 0;
  std::int64_t last_t_us = 0;
};

struct Manifest {
  std::vector<ManifestShard> shards;

  [[nodiscard]] std::uint64_t total_records() const;
  /// Renders the manifest as a stable-key-order JSON document.
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O error.
  bool write(const std::string& path) const;
};

/// Record file of shard `index` of a run recording to `base`: base itself
/// for index 0, "<base>.repN" otherwise — an unsharded run records exactly
/// the file the user asked for.
[[nodiscard]] std::string shard_path(const std::string& base,
                                     std::size_t index);

}  // namespace dbs::obs::rec
