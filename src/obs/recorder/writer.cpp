#include "obs/recorder/writer.hpp"

#include <cassert>

namespace dbs::obs::rec {
namespace {

/// Flush the append buffer once it holds this many bytes.
constexpr std::size_t kBufferLimit = 256 * 1024;

}  // namespace

std::string_view to_string(RecordType t) {
  switch (t) {
    case RecordType::Submit: return "submit";
    case RecordType::Start: return "start";
    case RecordType::Finish: return "finish";
    case RecordType::DynRequest: return "dyn_request";
    case RecordType::DynGrant: return "dyn_grant";
    case RecordType::DynReject: return "dyn_reject";
    case RecordType::DynRelease: return "dyn_release";
    case RecordType::MalleableShrink: return "malleable_shrink";
    case RecordType::Requeue: return "requeue";
    case RecordType::NodesLost: return "nodes_lost";
    case RecordType::Cancel: return "cancel";
    case RecordType::DecStartJob: return "dec_start_job";
    case RecordType::DecGrantDyn: return "dec_grant_dyn";
    case RecordType::DecRejectDyn: return "dec_reject_dyn";
    case RecordType::DecPreempt: return "dec_preempt";
    case RecordType::DecShrinkMalleable: return "dec_shrink_malleable";
    case RecordType::DecReserve: return "dec_reserve";
  }
  return "unknown";
}

RecordWriter::~RecordWriter() { finalize(); }

bool RecordWriter::open(const std::string& path, std::int64_t capacity,
                        std::int64_t time_bucket_us) {
  assert(!out_.is_open());
  assert(time_bucket_us > 0);
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) return false;
  path_ = path;
  bucket_us_ = time_bucket_us;
  buffer_.reserve(kBufferLimit + kRecordSize);
  strings_ = {""};
  string_ids_ = {{"", 0}};

  FileHeader header;
  header.capacity = capacity;
  header.bucket_us = bucket_us_;
  codec::ByteWriter write(buffer_);
  write(header);
  assert(buffer_.size() == kHeaderSize);
  return true;
}

std::uint16_t RecordWriter::intern(std::string_view s) {
  if (s.empty()) return 0;
  const auto it = string_ids_.find(std::string(s));
  if (it != string_ids_.end()) return it->second;
  if (strings_.size() > 0xffff) return 0;  // table full; degrade to ""
  const auto id = static_cast<std::uint16_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(strings_.back(), id);
  return id;
}

void RecordWriter::append(const PackedRecord& r) {
  if (!out_.is_open()) return;
  PackedRecord rec = r;
  // The time index assumes nondecreasing timestamps; clamp stragglers
  // into the current bucket instead of corrupting the bucket boundaries.
  if (any_record_ && rec.t_us < max_t_us_) rec.t_us = max_t_us_;

  if (!any_record_) {
    any_record_ = true;
    first_t_us_ = rec.t_us;
    first_bucket_ = rec.t_us / bucket_us_;
    bucket_first_.push_back(count_);
  }
  max_t_us_ = rec.t_us;
  const std::int64_t bucket = rec.t_us / bucket_us_ - first_bucket_;
  // Every bucket up to the record's maps to this ordinal as its first: an
  // empty bucket's scan starts at the next record past it.
  while (static_cast<std::int64_t>(bucket_first_.size()) <= bucket)
    bucket_first_.push_back(count_);

  if (rec.job != kNoId) postings_[rec.job].push_back(count_);
  // A decision also belongs to the job it frees cores for.
  if (rec.other != kNoId && rec.other != rec.job)
    postings_[rec.other].push_back(count_);

  encode_record(rec, buffer_);
  ++count_;
  if (buffer_.size() >= kBufferLimit) flush_buffer();
}

void RecordWriter::flush_buffer() {
  if (!buffer_.empty()) {
    out_.write(reinterpret_cast<const char*>(buffer_.data()),
               static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
}

bool RecordWriter::finalize() {
  if (!out_.is_open()) return false;
  flush_buffer();

  // String table: count, then (len, bytes) per string.
  codec::ByteWriter write(buffer_);
  FileFooter footer;
  footer.record_count = count_;
  footer.strings_off = kHeaderSize + count_ * kRecordSize;
  write(static_cast<std::uint32_t>(strings_.size()));
  for (const std::string& s : strings_) {
    write(static_cast<std::uint16_t>(s.size()));
    write.bytes(s);
  }
  flush_buffer();

  // Job index: entry table (sorted by job — std::map iterates in order)
  // followed by the concatenated posting lists it points into.
  footer.job_index_off = static_cast<std::uint64_t>(out_.tellp());
  footer.job_count = postings_.size();
  write(static_cast<std::uint32_t>(postings_.size()));
  for (const auto& [job, ordinals] : postings_) {
    write(JobIndexEntry{job, footer.total_postings,
                        static_cast<std::uint32_t>(ordinals.size())});
    footer.total_postings += ordinals.size();
  }
  flush_buffer();
  footer.postings_off = static_cast<std::uint64_t>(out_.tellp());
  for (const auto& [job, ordinals] : postings_) {
    for (const std::uint64_t ordinal : ordinals) write(ordinal);
    if (buffer_.size() >= kBufferLimit) flush_buffer();
  }
  flush_buffer();

  // Time index: first bucket number, then first-ordinal per bucket.
  footer.time_index_off = static_cast<std::uint64_t>(out_.tellp());
  write(first_bucket_, bucket_first_);
  flush_buffer();

  write(footer);
  assert(buffer_.size() == kFooterSize);
  flush_buffer();

  const bool ok = out_.good();
  out_.close();
  postings_.clear();
  string_ids_.clear();
  strings_.clear();
  bucket_first_.clear();
  return ok;
}

}  // namespace dbs::obs::rec
