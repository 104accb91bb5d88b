#include "obs/recorder/reader.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace dbs::obs::rec {

bool RecordReader::fail(std::string message) {
  error_ = std::move(message);
  if (in_.is_open()) in_.close();
  return false;
}

void RecordReader::parse_section(
    std::uint64_t from, std::uint64_t to, std::string_view what,
    const std::function<void(codec::ByteReader&)>& fn) {
  std::vector<unsigned char> bytes(static_cast<std::size_t>(to - from));
  in_.seekg(static_cast<std::streamoff>(from));
  in_.read(reinterpret_cast<char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  DBS_REQUIRE(in_.good(), "read error in the " + std::string(what));
  codec::ByteReader read(bytes.data(), bytes.size(), what);
  fn(read);
  read.finish();
}

bool RecordReader::open(const std::string& path) {
  in_.open(path, std::ios::binary);
  if (!in_.is_open()) return fail("cannot open " + path);
  in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in_.tellg());
  if (file_size < kHeaderSize + kFooterSize)
    return fail(path + ": truncated (no room for header + footer)");

  // Each section is read whole and parsed by a bounds-checked reader, so
  // a corrupt count or offset fails here instead of driving an allocation.
  try {
    FileHeader header;
    parse_section(0, kHeaderSize, "header", [&](auto& read) { read(header); });
    if (header.magic != kMagic)
      return fail(path + ": not a flight-recorder file (bad magic)");
    if (header.version != kFormatVersion)
      return fail(path + ": unsupported format version " +
                  std::to_string(header.version) + " (reader supports " +
                  std::to_string(kFormatVersion) + ")");
    if (header.record_size != kRecordSize)
      return fail(path + ": unexpected record size");
    if (header.bucket_us <= 0) return fail(path + ": invalid time bucket");
    capacity_ = header.capacity;
    bucket_us_ = header.bucket_us;

    const std::uint64_t footer_off = file_size - kFooterSize;
    FileFooter footer;
    parse_section(footer_off, file_size, "footer",
                  [&](auto& read) { read(footer); });
    if (footer.version != kFormatVersion || footer.magic != kMagic)
      return fail(path + ": corrupt footer (run not finalized?)");
    // The sections ascend from the end of the records to the footer, and
    // the postings section holds exactly the footer's total.
    const std::uint64_t postings_bytes =
        footer.time_index_off - footer.postings_off;
    if (footer.record_count > (footer_off - kHeaderSize) / kRecordSize ||
        footer.strings_off != kHeaderSize + footer.record_count * kRecordSize ||
        footer.job_index_off < footer.strings_off ||
        footer.postings_off < footer.job_index_off ||
        footer.time_index_off < footer.postings_off ||
        footer.time_index_off > footer_off ||
        postings_bytes % 8 != 0 || postings_bytes / 8 != footer.total_postings)
      return fail(path + ": footer offsets out of range");
    record_count_ = footer.record_count;
    postings_off_ = footer.postings_off;

    parse_section(footer.strings_off, footer.job_index_off, "string table",
                  [&](codec::ByteReader& read) {
                    strings_.resize(read.count(2));
                    for (std::string& s : strings_) {
                      std::uint16_t len = 0;
                      read(len);
                      s = std::string(read.bytes(len));
                    }
                  });
    if (strings_.empty()) strings_.emplace_back();

    std::vector<JobIndexEntry> entries;
    parse_section(footer.job_index_off, footer.postings_off, "job index",
                  [&](auto& read) { read(entries); });
    if (entries.size() != footer.job_count)
      return fail(path + ": job index count mismatch");
    // Every job's postings follow the previous job's, so the entries tile
    // the postings section and no count can reach past it.
    std::uint64_t postings = 0;
    job_index_.reserve(entries.size());
    for (const JobIndexEntry& e : entries) {
      if (e.postings_start != postings)
        return fail(path + ": job index postings are not contiguous");
      postings += e.count;
      job_index_.emplace(e.job, e);
    }
    if (postings != footer.total_postings)
      return fail(path + ": job index postings do not add up to the total");

    parse_section(footer.time_index_off, footer_off, "time index",
                  [&](auto& read) { read(first_bucket_, bucket_first_); });
  } catch (const precondition_error& e) {
    return fail(path + ": " + e.what());
  }
  return true;
}

PackedRecord RecordReader::at(std::uint64_t ordinal) {
  unsigned char raw[kRecordSize] = {};
  if (ordinal < record_count_) {
    in_.seekg(static_cast<std::streamoff>(kHeaderSize + ordinal * kRecordSize));
    in_.read(reinterpret_cast<char*>(raw), kRecordSize);
  }
  return decode_record(raw);
}

std::vector<PackedRecord> RecordReader::for_job(std::uint64_t job) {
  std::vector<PackedRecord> records;
  const auto it = job_index_.find(job);
  if (it == job_index_.end()) return records;
  const JobIndexEntry& entry = it->second;
  std::vector<std::uint64_t> ordinals(entry.count);
  const std::uint64_t from = postings_off_ + entry.postings_start * 8;
  parse_section(from, from + entry.count * 8, "postings", [&](auto& read) {
    for (std::uint64_t& ordinal : ordinals) read(ordinal);
  });
  records.reserve(ordinals.size());
  for (const std::uint64_t ordinal : ordinals) records.push_back(at(ordinal));
  return records;
}

std::vector<std::uint64_t> RecordReader::jobs() const {
  std::vector<std::uint64_t> out;
  out.reserve(job_index_.size());
  for (const auto& [job, entry] : job_index_) out.push_back(job);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t RecordReader::scan_range(
    std::int64_t from_us, std::int64_t to_us,
    const std::function<void(const PackedRecord&)>& fn) {
  if (record_count_ == 0 || from_us >= to_us) return 0;
  std::uint64_t start = 0;
  if (!bucket_first_.empty() && from_us > std::numeric_limits<std::int64_t>::min()) {
    const std::int64_t bucket = from_us / bucket_us_ - first_bucket_;
    if (bucket >= static_cast<std::int64_t>(bucket_first_.size())) return 0;
    if (bucket > 0) start = bucket_first_[static_cast<std::size_t>(bucket)];
  }
  std::uint64_t visited = 0;
  in_.seekg(static_cast<std::streamoff>(kHeaderSize + start * kRecordSize));
  unsigned char raw[kRecordSize];
  for (std::uint64_t ordinal = start; ordinal < record_count_; ++ordinal) {
    in_.read(reinterpret_cast<char*>(raw), kRecordSize);
    const PackedRecord r = decode_record(raw);
    if (r.t_us >= to_us) break;  // timestamps are nondecreasing
    if (r.t_us >= from_us) {
      fn(r);
      ++visited;
    }
  }
  return visited;
}

}  // namespace dbs::obs::rec
