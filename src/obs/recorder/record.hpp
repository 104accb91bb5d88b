// The flight recorder's on-disk vocabulary: one fixed-size packed record
// per scheduler decision or job-lifecycle event.
//
// A record file is an append-only stream of kRecordSize-byte records
// followed by (at finalize time) a string table, a per-job posting index,
// a time-bucket index and a fixed-size footer locating them — the
// packed-header + indexed-storage idiom. Fixed-size records mean a record
// ordinal converts to a file offset with one multiply, so the job index
// stores bare ordinals and a per-job lookup is "hash the job id, seek the
// postings, seek each record" — never a full-file scan.
//
// All bytes go through the common codec (common/codec.hpp), so files are
// portable across hosts. User names are interned into the string table
// and referenced by 16-bit id; id 0 is always the empty string. A reject
// reason is stored as its rms::RejectReason value. A decision record is
// also the WAL's decision frame (svc/state_store.hpp): one 48-byte form
// of a decision, written by decision_record() (recorder.hpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/codec.hpp"

namespace dbs::obs::rec {

/// File format version; bump on any layout change. Readers reject files
/// whose major version they do not understand (see DESIGN.md §10).
inline constexpr std::uint32_t kFormatVersion = 2;
/// "DBSR" little-endian.
inline constexpr std::uint32_t kMagic = 0x52534244;
/// Bytes per packed record.
inline constexpr std::size_t kRecordSize = 48;
/// Bytes of the fixed header at offset 0.
inline constexpr std::size_t kHeaderSize = 32;
/// Bytes of the fixed footer at end-of-file.
inline constexpr std::size_t kFooterSize = 64;

/// What one record describes. Values are stable on-disk ids: lifecycle
/// events (from the server's observer paths) live below 16, scheduler
/// decisions (the rms::Decision stream) at 16+kind.
enum class RecordType : std::uint8_t {
  Submit = 0,           ///< qsub accepted; user/cores/walltime in the record
  Start = 1,            ///< job started (aux = wait in us)
  Finish = 2,           ///< job completed (cores = released allocation)
  DynRequest = 3,       ///< tm_dynget arrived (cores = extra asked)
  DynGrant = 4,         ///< request granted by the server (cores = extra)
  DynReject = 5,        ///< request finally rejected
  DynRelease = 6,       ///< application released cores voluntarily
  MalleableShrink = 7,  ///< scheduler-initiated shrink committed
  Requeue = 8,          ///< preemption / failure sent the job back to queued
  NodesLost = 9,        ///< partial allocation lost to a node failure
  Cancel = 10,          ///< qdel (cores = allocation released, 0 if queued)
  DecStartJob = 16,         ///< decision: start a queued job
  DecGrantDyn = 17,         ///< decision: grant a dynamic request
  DecRejectDyn = 18,        ///< decision: reject/defer a dynamic request
  DecPreempt = 19,          ///< decision: preempt a running job
  DecShrinkMalleable = 20,  ///< decision: shrink a malleable job
  DecReserve = 21,          ///< decision: keep a StartLater reservation
};

[[nodiscard]] constexpr bool is_decision(RecordType t) {
  return static_cast<std::uint8_t>(t) >= 16;
}

[[nodiscard]] std::string_view to_string(RecordType t);

/// Record flag bits.
inline constexpr std::uint8_t kFlagBackfilled = 1;  ///< Start/DecStartJob
inline constexpr std::uint8_t kFlagApplied = 2;     ///< decisions
inline constexpr std::uint8_t kFlagDeferred = 4;    ///< DecRejectDyn
inline constexpr std::uint8_t kFlagHasHint = 8;     ///< DecRejectDyn: aux valid

/// Sentinel for "no id" in the 32-bit job/other/request fields; a real id
/// must be below it.
inline constexpr std::uint32_t kNoId = 0xffffffffu;

/// One decoded record. The meaning of `aux_us` depends on `type`:
/// Start → wait (submit→start) in us; Submit → requested walltime in us;
/// DecReserve → planned start (absolute us); DecRejectDyn → availability
/// hint (absolute us, valid only with kFlagHasHint).
struct PackedRecord {
  std::int64_t t_us = 0;   ///< simulated time of the record
  std::int64_t aux_us = 0;
  std::uint32_t job = kNoId;      ///< the job acted on
  std::uint32_t other = kNoId;    ///< for_job (decisions)
  std::uint32_t request = kNoId;  ///< dynamic request id, if any
  std::int32_t cores = 0;
  std::uint32_t iteration = 0;    ///< scheduler iteration (decisions only)
  std::uint16_t user = 0;         ///< string-table id (Submit)
  std::uint16_t reason = 0;       ///< rms::RejectReason (decisions)
  RecordType type = RecordType::Submit;
  std::uint8_t flags = 0;

  [[nodiscard]] bool has(std::uint8_t flag) const {
    return (flags & flag) != 0;
  }
  [[nodiscard]] bool operator==(const PackedRecord&) const = default;
};

/// The record layout: 42 bytes of fields, zero-padded to kRecordSize.
void fields(auto& io, codec::Of<PackedRecord> auto& r) {
  std::uint16_t pad16 = 0;
  std::uint32_t pad32 = 0;
  io(r.t_us, r.aux_us, r.job, r.other, r.request, r.cores, r.iteration,
     r.user, r.reason, r.type, r.flags, pad16, pad32);
}

/// The fixed header at offset 0 (kHeaderSize bytes).
struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t record_size = kRecordSize;
  std::int64_t capacity = 0;   ///< the cluster's total cores
  std::int64_t bucket_us = 0;  ///< time-index granularity
};

void fields(auto& io, codec::Of<FileHeader> auto& h) {
  std::uint32_t reserved = 0;
  io(h.magic, h.version, h.record_size, reserved, h.capacity, h.bucket_us);
}

/// The fixed footer at end-of-file (kFooterSize bytes). The index
/// sections lie in ascending offset order between the records and it:
/// string table, job index, postings, time index.
struct FileFooter {
  std::uint64_t record_count = 0;
  std::uint64_t strings_off = 0;
  std::uint64_t job_index_off = 0;
  std::uint64_t postings_off = 0;
  std::uint64_t time_index_off = 0;
  std::uint64_t job_count = 0;
  std::uint64_t total_postings = 0;
  std::uint32_t version = kFormatVersion;
  std::uint32_t magic = kMagic;
};

void fields(auto& io, codec::Of<FileFooter> auto& f) {
  io(f.record_count, f.strings_off, f.job_index_off, f.postings_off,
     f.time_index_off, f.job_count, f.total_postings, f.version, f.magic);
}

/// One job-index entry: the job's postings are `count` record ordinals
/// starting at `postings_start` in the postings array.
struct JobIndexEntry {
  std::uint64_t job = 0;
  std::uint64_t postings_start = 0;
  std::uint32_t count = 0;
};

void fields(auto& io, codec::Of<JobIndexEntry> auto& e) {
  std::uint32_t pad = 0;  // to 24 bytes per entry
  io(e.job, e.postings_start, e.count, pad);
}

/// Appends exactly kRecordSize bytes to `out`.
inline void encode_record(const PackedRecord& r,
                          std::vector<unsigned char>& out) {
  codec::ByteWriter write(out);
  write(r);
}

/// Decodes the kRecordSize bytes at `in`.
[[nodiscard]] inline PackedRecord decode_record(const unsigned char* in) {
  PackedRecord r;
  codec::ByteReader read(in, kRecordSize, "record");
  read(r);
  return r;
}

}  // namespace dbs::obs::rec
