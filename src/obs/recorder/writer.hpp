// Streaming writer for flight-recorder files.
//
// append() buffers packed records and tracks, in memory, only what the
// sidecar indexes need: the user-name intern table, per-job posting lists
// (record ordinals) and the first ordinal of each time bucket. finalize()
// appends the three index sections plus the footer and closes the file.
// Memory is O(jobs + distinct strings + buckets), never O(records).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/recorder/record.hpp"

namespace dbs::obs::rec {

class RecordWriter {
 public:
  RecordWriter() = default;
  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Creates `path` (truncating) and writes the fixed header. `capacity`
  /// is the cluster's total core count (stored for utilization curves);
  /// `time_bucket_us` is the index granularity. Returns false if the file
  /// cannot be created (writer stays disabled).
  bool open(const std::string& path, std::int64_t capacity,
            std::int64_t time_bucket_us = 60'000'000);

  [[nodiscard]] bool is_open() const { return out_.is_open(); }

  /// Interns `s` into the string table; returns its stable 16-bit id.
  /// Id 0 is the empty string. Saturates: after 65535 distinct strings,
  /// new ones map to id 0 rather than corrupting the table.
  std::uint16_t intern(std::string_view s);

  /// Appends one record. Records must arrive in nondecreasing `t_us`
  /// order for the time index to be exact; an out-of-order timestamp is
  /// clamped into the current bucket (the scan then over-reads slightly,
  /// it never misses records).
  void append(const PackedRecord& r);

  /// Writes the string table, job index, time index and footer, then
  /// closes the file. Returns false on a write error. Idempotent.
  bool finalize();

  [[nodiscard]] std::uint64_t records_written() const { return count_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Timestamps of the first/last record appended (0 while empty).
  [[nodiscard]] std::int64_t first_t_us() const { return first_t_us_; }
  [[nodiscard]] std::int64_t last_t_us() const { return max_t_us_; }

 private:
  void flush_buffer();

  std::ofstream out_;
  std::string path_;
  std::vector<unsigned char> buffer_;
  std::uint64_t count_ = 0;
  std::int64_t bucket_us_ = 0;
  std::int64_t first_t_us_ = 0;
  std::int64_t max_t_us_ = 0;
  bool any_record_ = false;

  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint16_t> string_ids_;
  /// job id -> ordinals of records touching it (ordered map so the index
  /// section is written sorted by job without a separate sort pass).
  std::map<std::uint64_t, std::vector<std::uint64_t>> postings_;
  std::int64_t first_bucket_ = 0;
  std::vector<std::uint64_t> bucket_first_;  ///< first ordinal per bucket
};

}  // namespace dbs::obs::rec
