// The always-on service core: turns a one-shot BatchSystem into a daemon.
//
// One thread (the service loop) owns the simulation; any number of
// producer threads feed an IngestQueue. Each tick the loop
//
//   1. drains the queue, stamps each record's admission time
//      (monotone: max(requested, now + 1us, previous admission)),
//   2. appends + fsyncs the records to the WAL — inputs become durable
//      BEFORE they can influence any decision,
//   3. schedules them on the simulator's Submission lane,
//   4. advances virtual time by one tick — while the ingest is open, never
//      up to the admission watermark: staying strictly below it keeps
//      every simulated instant atomic, so a later drain can never stamp a
//      record onto an instant whose events already fired,
//   5. snapshots once enough decisions accumulated since the last one.
//
// Admission-time determinism: step 4's pacing keeps now() strictly below
// last_admitted whenever anything was admitted, so the stamp reduces to
// max(requested, last_admitted) — a pure function of the drained record
// sequence. Atomic instants make the rest deterministic too: the set of
// events sharing a timestamp (and with it the scheduler-iteration
// structure) is fixed once the instant fires, never split by a drain
// boundary. A crash replay that re-feeds the WAL's ingest tail therefore
// reproduces the admission times the live run chose, and with them the
// same decisions (verified record against record with the logged stream).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "svc/ingest.hpp"
#include "svc/state_store.hpp"

namespace dbs::batch {
class BatchSystem;
}

namespace dbs::svc {

struct ServiceConfig {
  /// Durable-state directory (WAL + snapshots). Empty = run without
  /// durability (pure in-memory service). Durability requires the system
  /// to use LatencyModel::zero() and streaming metrics (snapshots are
  /// taken at drain-cycle quiescence, which only zero latency guarantees).
  std::string state_dir;
  /// Take a snapshot once this many decisions accumulated since the last
  /// one (0 = only the final shutdown snapshot).
  std::uint64_t snapshot_every = 4096;
  /// On-disk snapshot files retained after each new one (0 = keep all).
  /// Older images stay recoverable only through the WAL-from-snapshot
  /// replay of whatever survives, so >= 2 is recommended.
  std::size_t keep_snapshots = 4;
  /// Virtual time the simulation advances per drain cycle.
  Duration tick = Duration::seconds(1);
  /// Wall-clock pause between drain cycles while the ingest is open
  /// (zero = free-running, e.g. trace replay at full speed).
  std::chrono::microseconds wall_sleep{0};
  /// Hard bound on drain cycles (0 = none); tests use it as a backstop.
  std::uint64_t max_ticks = 0;
};

class ServiceLoop {
 public:
  /// Wires the loop between `system` (not yet run) and `ingest`. With a
  /// durable config, requires zero latency and streaming metrics.
  ServiceLoop(batch::BatchSystem& system, IngestQueue& ingest,
              ServiceConfig config);
  ~ServiceLoop();

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  /// Registers a generator whose state rides in every snapshot (e.g. a
  /// synthetic feeder's Rng). Call before open().
  void attach_rng(Rng* rng) { rng_ = rng; }

  /// Recovers durable state (durable config only; call once, before
  /// run()): restores the newest usable snapshot, re-feeds the WAL's
  /// unfired ingest tail at the recorded admission times, re-runs it while
  /// comparing every re-made decision record with the logged one, then
  /// truncates the torn tail (if any) and reopens the WAL for appending.
  /// Returns true when prior state was found (false = cold start).
  bool open();

  /// Drain cycles until the ingest is closed and fully drained and the
  /// simulation runs dry — or stop()/max_ticks intervenes. A durable loop
  /// writes a final snapshot on the way out. Returns ticks executed.
  std::uint64_t run();

  /// One drain cycle (steps 1-5 above). Exposed for tests and custom
  /// drivers; run() is this in a loop.
  void tick();

  /// What run() does on the way out: the final (forced) snapshot. Custom
  /// drivers that call tick() directly (e.g. the sharded service fanning
  /// ticks across loops) call this once when their run ends.
  void finalize();

  /// Thread-safe: makes run() return after the current cycle.
  void stop() { stop_.store(true, std::memory_order_release); }

  /// True once the loop owes no more work: ingest closed and drained,
  /// simulation idle.
  [[nodiscard]] bool drained() const;

  [[nodiscard]] bool recovered() const { return recovered_; }
  /// Ingest records in the WAL (recovered + appended). A restarted trace
  /// feeder skips this many records to resume where it left off.
  [[nodiscard]] std::uint64_t wal_ingest_total() const {
    return wal_ingest_total_;
  }
  [[nodiscard]] std::uint64_t wal_decision_total() const {
    return wal_decision_total_;
  }
  /// Submit records in the WAL (recovered + appended), and their summed
  /// core weight (max(cores, 1) per submit — the router's charging rule).
  /// A sharded service seeds its router ledger from these after recovery,
  /// so a reopened service keeps routing exactly where a never-restarted
  /// one would.
  [[nodiscard]] std::uint64_t wal_submit_total() const {
    return wal_submit_total_;
  }
  [[nodiscard]] std::uint64_t wal_submit_cores() const {
    return wal_submit_cores_;
  }
  [[nodiscard]] std::uint64_t snapshots_written() const {
    return snapshots_written_;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] Time last_admitted() const { return last_admitted_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  /// Stamps, logs and schedules everything currently queued. Returns the
  /// number of records admitted.
  std::size_t admit_pending();
  /// Schedules one (already admitted) record on the Submission lane.
  void schedule_record(const IngestRecord& r);
  /// DecisionApplier sink: verify against the recovery tail, then append.
  void on_decision(const rms::Decision& d);
  /// Maintains the wal_submit_* counters for one WAL-bound record.
  void count_submit(const IngestRecord& r);
  void maybe_snapshot(bool force);
  [[nodiscard]] SystemState capture_full() const;

  batch::BatchSystem& system_;
  IngestQueue& ingest_;
  ServiceConfig config_;
  bool durable_ = false;
  Rng* rng_ = nullptr;

  std::unique_ptr<WalWriter> wal_;
  Time last_admitted_;
  /// Admission times of WAL-logged records whose submission event has not
  /// fired yet (monotone). A snapshot only counts an ingest record as
  /// "covered" once its event fired; the rest form the replayable tail.
  std::deque<Time> pending_admits_;
  std::uint64_t ingest_fired_total_ = 0;
  std::uint64_t wal_ingest_total_ = 0;
  std::uint64_t wal_submit_total_ = 0;
  std::uint64_t wal_submit_cores_ = 0;
  std::uint64_t wal_decision_total_ = 0;
  std::uint64_t decisions_at_snapshot_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t ticks_ = 0;
  bool opened_ = false;
  bool recovered_ = false;

  /// Recovery verification window: logged decisions not yet re-made.
  std::vector<obs::rec::PackedRecord> expected_;
  std::size_t expected_next_ = 0;

  std::vector<IngestRecord> drain_buf_;
  std::atomic<bool> stop_{false};
};

}  // namespace dbs::svc
