// Durable service state: versioned binary snapshots plus a write-ahead
// log, giving the always-on service crash recovery with deterministic
// re-execution.
//
// A snapshot captures the full SystemState at a quiescent point (between
// drain cycles of a zero-latency system: every protocol cascade has fired,
// so the remaining pending events are exactly reconstructible — mom
// completions and armed ask/release descriptors, the scheduler poll, and
// deferred retirements). The WAL records two things, both little-endian
// framed as [type u8][len u32][payload]:
//
//   ingest records   appended and fsynced in drain order BEFORE admission,
//                    so every input that can influence a decision is
//                    durable first;
//   decisions        the typed rms::Decision stream, appended as each is
//                    executed, each as its 48-byte flight-recorder record
//                    (obs::rec::decision_record) — a verification trail,
//                    not an input.
//
// Every layout is one field list on the common codec (common/codec.hpp).
//
// Recovery = count the WAL in one pass, load the newest snapshot
// consistent with it (its recorded WAL counts must not exceed what the log
// actually holds — a crash can lose a snapshot's tail but never un-write
// the log), re-arm pending events, re-feed the WAL's unfired ingest tail
// at the RECORDED admitted times, then re-run. Determinism makes the
// re-made decisions identical to the logged ones, which the service loop
// verifies record against record before switching the WAL back to append
// mode. The log is read frame by frame (WalReader), never whole. Format
// details: DESIGN.md §13.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/maui_scheduler.hpp"
#include "metrics/recorder.hpp"
#include "obs/recorder/record.hpp"
#include "rms/decision.hpp"
#include "rms/job.hpp"
#include "rms/mom.hpp"
#include "svc/ingest.hpp"

namespace dbs::batch {
class BatchSystem;
}

namespace dbs::svc {

/// Snapshot file format version; bump on any layout change.
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// "DBSS" little-endian.
inline constexpr std::uint32_t kSnapshotMagic = 0x53534244;
/// WAL file format version; bump on any layout change.
inline constexpr std::uint32_t kWalVersion = 2;
/// "DBSW" little-endian.
inline constexpr std::uint32_t kWalMagic = 0x57534244;
/// Bytes of the WAL header (magic + version).
inline constexpr std::uint64_t kWalHeaderSize = 8;
/// A WalWriter writes its buffer out once it holds this many bytes.
inline constexpr std::size_t kWalFlushBytes = 64 * 1024;
/// A WalReader's read buffer (grown only for a larger frame).
inline constexpr std::size_t kWalReadBytes = 64 * 1024;

// --- the full serializable system image -----------------------------------

/// Everything the service must persist to resurrect a system mid-flight.
/// Derived planning state (reservation tables, the tail staircase,
/// availability profiles) is deliberately absent: it is rebuilt from this
/// image on the first post-recovery iteration.
struct SystemState {
  Time now;

  // rms::Server
  std::uint64_t next_job = 0;
  std::uint64_t next_request = 0;
  struct JobEntry {
    JobId id;
    rms::JobSpec spec;
    Time submit;
    rms::Job::Restore restore;
    rms::AppState app;

    [[nodiscard]] bool operator==(const JobEntry&) const = default;
  };
  std::vector<JobEntry> jobs;                       ///< id order
  std::vector<rms::DynRequest> dyn_fifo;            ///< FIFO order
  std::vector<std::pair<JobId, Time>> hints;        ///< id order

  // cluster::Cluster (allocations are recovered from job placements)
  std::vector<std::uint8_t> node_states;

  // rms::MomManager
  std::vector<rms::MomManager::RuntimeState> moms;  ///< job-id order

  // core::MauiScheduler
  core::MauiScheduler::ServiceState scheduler;

  // metrics::Recorder (streaming mode)
  metrics::Recorder::State metrics;

  // service loop
  Time last_admitted;
  std::uint64_t wal_ingest = 0;     ///< WAL ingest records at capture
  std::uint64_t wal_decisions = 0;  ///< WAL decision records at capture
  /// Kept for the v1 layout; the service loop writes it as all-zero.
  std::array<std::uint64_t, 4> rng{};

  [[nodiscard]] bool operator==(const SystemState&) const = default;
};

/// Captures the component state of `system` (the service-loop fields —
/// last_admitted, WAL counts — are the caller's to fill). Requires a
/// quiescent zero-latency system with streaming metrics.
[[nodiscard]] SystemState capture_state(batch::BatchSystem& system);

/// Restores a snapshot into a freshly constructed system (same config,
/// nothing submitted yet): jumps the clock, re-creates jobs/applications,
/// replays allocations into the cluster, re-arms mom/poll/retirement
/// events and reloads the fairshare/DFS/metrics ledgers.
void restore_state(batch::BatchSystem& system, const SystemState& s);

// --- snapshot codec --------------------------------------------------------

[[nodiscard]] std::vector<unsigned char> encode_state(const SystemState& s);
/// Throws precondition_error on bad magic/version/truncation.
[[nodiscard]] SystemState decode_state(const unsigned char* data,
                                       std::size_t size);
[[nodiscard]] SystemState decode_state(const std::vector<unsigned char>& b);

// --- WAL -------------------------------------------------------------------

/// WAL record types (the framing byte).
inline constexpr std::uint8_t kWalIngest = 1;
inline constexpr std::uint8_t kWalDecision = 2;

[[nodiscard]] std::vector<unsigned char> encode_ingest(const IngestRecord& r);
[[nodiscard]] IngestRecord decode_ingest(const unsigned char* data,
                                         std::size_t size);

/// Append-only WAL writer. `truncate_to` reopens an existing log cut to a
/// byte offset (recovery drops a torn tail); 0 starts a fresh log.
class WalWriter {
 public:
  /// Creates (or truncates to `keep_bytes` and appends to) `path`.
  /// keep_bytes == 0 writes a fresh header.
  WalWriter(const std::string& path, std::uint64_t keep_bytes = 0);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// The appends buffer their frame and write the buffer out (flush(), no
  /// fsync) whenever it passes a constant size, so the buffer stays
  /// bounded however many records one batch appends.
  void append_ingest(const IngestRecord& r);
  /// Appends decision_record(at, iteration, d).
  void append_decision(Time at, std::uint64_t iteration,
                       const rms::Decision& d);
  /// Writes the buffered records to the file with write(2), no fsync.
  /// Called from the thread that appends.
  void flush();
  /// fsyncs the file: every record flush() wrote before this call is
  /// durable when it returns. Any thread may call it, also while the
  /// appending thread appends and flushes.
  void fsync() const;

  /// Records appended through this writer (excludes any kept prefix).
  [[nodiscard]] std::uint64_t appended_ingest() const { return ingest_; }
  [[nodiscard]] std::uint64_t appended_decisions() const {
    return decisions_;
  }

 private:
  /// Buffers one [type][len][payload] frame.
  template <class Payload>
  void append_frame(std::uint8_t type, const Payload& payload);

  int fd_ = -1;
  std::string path_;
  std::vector<unsigned char> buffer_;
  std::uint64_t ingest_ = 0;
  std::uint64_t decisions_ = 0;
};

/// Reads a WAL's frames in file order through a read buffer of a constant
/// size (grown only to hold a frame larger than it), so a log of any
/// length is read holding one frame at a time. Recovery runs one reader
/// to count the log and two more as cursors over its ingest and decision
/// frames.
class WalReader {
 public:
  /// Opens `path` and checks its header: throws precondition_error when
  /// the file cannot be opened or is shorter than the header, on bad magic
  /// and on a version other than kWalVersion (a v1 log is rejected, naming
  /// its version). Frames are read up to `end` bytes into the file, or to
  /// its end.
  explicit WalReader(const std::string& path,
                     std::uint64_t end = UINT64_MAX);
  ~WalReader();

  WalReader(const WalReader&) = delete;
  WalReader& operator=(const WalReader&) = delete;

  /// Advances to the next complete frame and decodes it. Returns false at
  /// the end, or at a torn tail — an incomplete frame, an unknown type, an
  /// ingest payload that does not decode or a decision of the wrong size —
  /// which a crash mid-append leaves; offset() then is the valid prefix.
  /// With `only` set to a frame type, frames of the other type are
  /// stepped over undecoded: for a prefix an earlier pass validated.
  bool next(std::uint8_t only = 0);
  /// Steps over the next `count` frames of type `type`, and the frames of
  /// the other type among them, without decoding any; next() then reads
  /// the frame after them. False when the frames end first.
  bool skip(std::uint8_t type, std::uint64_t count);

  /// The current frame's type (kWalIngest or kWalDecision).
  [[nodiscard]] std::uint8_t type() const { return type_; }
  /// The current ingest frame's record; the reader's own copy, so the
  /// caller may move from it.
  [[nodiscard]] IngestRecord& ingest() { return ingest_; }
  /// The current decision frame's record.
  [[nodiscard]] const obs::rec::PackedRecord& decision() const {
    return decision_;
  }
  /// Bytes up to the end of the current frame (the header's size before
  /// the first frame).
  [[nodiscard]] std::uint64_t offset() const { return offset_; }

 private:
  /// Reads the header of the frame at offset(): false when no complete
  /// frame fits before end_.
  bool peek(std::uint8_t& type, std::uint64_t& size);
  /// Moves offset() past the `size`-byte frame there, reading none of it
  /// that is not buffered yet.
  void step(std::uint64_t size);
  /// Makes `need` bytes from offset() on readable at buf_[head_]; the
  /// caller has checked that they lie before end_.
  void fill(std::size_t need);

  int fd_ = -1;
  std::string path_;
  std::uint64_t end_ = 0;
  std::vector<unsigned char> buf_;
  std::size_t head_ = 0;  ///< buf_[head_] is the byte at offset_
  std::size_t tail_ = 0;  ///< buf_[tail_] is the byte at file_pos_
  std::uint64_t offset_ = 0;
  std::uint64_t file_pos_ = 0;
  std::uint8_t type_ = 0;
  IngestRecord ingest_;
  obs::rec::PackedRecord decision_{};
};

/// What one pass over a WAL's valid prefix counts: what recovery needs
/// before it picks a snapshot and reopens the log.
struct WalSummary {
  /// Just past the last complete frame; 0 when there is no WAL file
  /// (recovery then cold-starts).
  std::uint64_t valid_bytes = 0;
  IngestTotals ingest;
  std::uint64_t decisions = 0;
};

/// Counts `path` frame by frame (see WalSummary). Throws like WalReader
/// on a bad header; a missing file is an empty summary.
[[nodiscard]] WalSummary scan_wal(const std::string& path);

/// A fully materialized WAL, for tests and offline inspection (recovery
/// streams the log through WalReader instead). `valid_bytes` is the
/// offset just past the last complete record.
struct WalContents {
  std::vector<IngestRecord> ingest;
  std::vector<obs::rec::PackedRecord> decisions;
  std::uint64_t valid_bytes = kWalHeaderSize;
};

/// Reads every frame of `path` through one WalReader; a missing file
/// yields empty contents with valid_bytes 0. Throws like WalReader.
[[nodiscard]] WalContents read_wal(const std::string& path);

// --- state directory layout ------------------------------------------------

/// Paths inside a service state directory.
[[nodiscard]] std::string wal_path(const std::string& state_dir);
[[nodiscard]] std::string snapshot_path(const std::string& state_dir,
                                        std::uint64_t decisions);

/// Writes `s` as snapshot-<wal_decisions>.dbss (write-to-temp + rename so
/// a crash mid-write never leaves a half snapshot under the final name).
void write_snapshot(const std::string& state_dir, const SystemState& s);

/// The newest on-disk snapshot consistent with a WAL holding
/// `wal_ingest`/`wal_decisions` complete records, or nullopt (cold start).
/// Unreadable or inconsistent snapshot files are skipped, not fatal: the
/// WAL can always re-derive from an older image.
[[nodiscard]] std::optional<SystemState> load_best_snapshot(
    const std::string& state_dir, std::uint64_t wal_ingest,
    std::uint64_t wal_decisions);

/// Deletes all but the `keep` newest snapshot files (by decision count).
/// Returns how many were removed. keep == 0 is a no-op: the caller must
/// always retain at least one image.
std::size_t prune_snapshots(const std::string& state_dir, std::size_t keep);

}  // namespace dbs::svc
