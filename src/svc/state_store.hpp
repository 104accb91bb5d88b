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
// Recovery = load the newest snapshot consistent with the WAL (its
// recorded WAL counts must not exceed what the log actually holds — a
// crash can lose a snapshot's tail but never un-write the log), re-arm
// pending events, re-schedule the WAL's unfired ingest tail at the
// RECORDED admitted times, then re-run. Determinism makes the re-made
// decisions identical to the logged ones, which the service loop verifies
// record against record before switching the WAL back to append mode.
// Format details: DESIGN.md §13.
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

// --- the full serializable system image -----------------------------------

/// Everything the service must persist to resurrect a system mid-flight.
/// Derived planning state (reservation tables, plan/priority caches,
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
  /// Attached service RNG (e.g. a synthetic feeder's); all-zero = none.
  std::array<std::uint64_t, 4> rng{};

  [[nodiscard]] bool operator==(const SystemState&) const = default;
};

/// Captures the component state of `system` (the service-loop fields —
/// last_admitted, WAL counts, rng — are the caller's to fill). Requires a
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

  void append_ingest(const IngestRecord& r);
  /// Appends decision_record(at, iteration, d).
  void append_decision(Time at, std::uint64_t iteration,
                       const rms::Decision& d);
  /// Flushes buffered records and fsyncs the file.
  void sync();

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

/// A fully parsed WAL. `valid_bytes` is the offset just past the last
/// complete record — a torn tail (partial record after a crash mid-write)
/// is tolerated and cut there on reopen.
struct WalContents {
  std::vector<IngestRecord> ingest;
  std::vector<obs::rec::PackedRecord> decisions;
  std::uint64_t valid_bytes = kWalHeaderSize;
};

/// Reads `path`; a missing file yields empty contents with valid_bytes 0
/// (recovery then cold-starts). Throws on bad magic or a version other
/// than kWalVersion (a v1 log is rejected, naming its version).
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
