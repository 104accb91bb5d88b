// The always-on service core: turns a one-shot BatchSystem into a daemon.
//
// One thread (the service loop) owns the simulation; any number of
// producer threads feed an IngestQueue. Each tick the loop
//
//   1. drains the queue, stamps each record's admission time
//      (monotone: max(requested, now + 1us, previous admission)),
//   2. appends + fsyncs the records to the WAL — inputs become durable
//      BEFORE they can influence any decision,
//   3. holds them, in the chunks the queue handed over, and re-arms the
//      system's submission window, which the loop feeds as its source
//      (the recovery tail first, then the held records) and which keeps
//      at most batch::kSubmissionWindow of them armed,
//   4. advances virtual time by one tick — while the ingest is open, never
//      up to the admission watermark: staying strictly below it keeps
//      every simulated instant atomic, so a later drain can never stamp a
//      record onto an instant whose events already fired,
//   5. snapshots once enough decisions accumulated since the last one.
//
// Snapshot publication runs off this thread. At a snapshot point the loop
// does only what reads live state: it writes the WAL's buffered records
// (write(2), no fsync) and captures the SystemState. A writer thread then
// fsyncs the WAL, writes, fsyncs and renames the snapshot file, fsyncs the
// directory and prunes, in that order, so a published snapshot never
// claims WAL records that are not durable. At most one snapshot is in
// flight: the next snapshot point, finalize() and the destructor wait for
// it, and a writer error is rethrown by the next tick() or finalize().
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
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "svc/ingest.hpp"
#include "svc/state_store.hpp"
#include "workload/source.hpp"

namespace dbs::batch {
class BatchSystem;
}

namespace dbs::obs {
class Counter;
class Gauge;
class Registry;
}  // namespace dbs::obs

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

class ServiceLoop final : public wl::SubmissionSource {
 public:
  /// Wires the loop between `system` (not yet run) and `ingest`. With a
  /// durable config, requires zero latency and streaming metrics.
  ServiceLoop(batch::BatchSystem& system, IngestQueue& ingest,
              ServiceConfig config);
  ~ServiceLoop() override;

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  /// Recovers durable state (durable config only; call once, before
  /// run()): counts the WAL in one pass, restores the newest usable
  /// snapshot, truncates the torn tail (if any) and reopens the WAL for
  /// appending, then re-runs the WAL's unfired ingest tail at the recorded
  /// admission times while comparing every re-made decision record with
  /// the logged one. Two cursors stream the log meanwhile: one feeds the
  /// tail into the submission window, the other supplies the next logged
  /// decision. Returns true when prior state was found (false = cold
  /// start).
  bool open();

  /// Drain cycles until the ingest is closed and fully drained and the
  /// simulation runs dry — or stop()/max_ticks intervenes, then
  /// finalize(). Returns ticks executed.
  std::uint64_t run();

  /// One drain cycle (steps 1-5 above). Exposed for tests and custom
  /// drivers; run() is this in a loop. Rethrows the error of a snapshot
  /// writer that failed since the last tick.
  void tick();

  /// What run() does on the way out: a durable loop takes the final
  /// (forced) snapshot and returns once every snapshot is published, so
  /// the state dir is complete; a writer error is rethrown here. Custom
  /// drivers that call tick() directly (e.g. the sharded service fanning
  /// ticks across loops) call this once when their run ends, and read the
  /// state dir only after it returns.
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
    return wal_ingest_.records;
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
    return wal_ingest_.submits;
  }
  [[nodiscard]] std::uint64_t wal_submit_cores() const {
    return wal_ingest_.submit_cores;
  }
  /// Snapshots published (on disk under their final name).
  [[nodiscard]] std::uint64_t snapshots_written() const {
    return snapshots_written_;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] Time last_admitted() const { return last_admitted_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  /// The window's pull: the recovery tail's next record while open()
  /// reads one, else the oldest held record, moved into `out`. False when
  /// neither is left, until open() or admit_pending() re-arms the window.
  bool next(wl::SubmitSpec& out) override;
  /// Drains, stamps and logs everything currently queued, then holds it
  /// and re-arms the window. Returns the number of records admitted.
  std::size_t admit_pending();
  /// Reads the recovery tail's next record, taking its stamp.
  IngestRecord& read_tail();
  /// DecisionApplier sink: verify against the logged decisions, then
  /// append.
  void on_decision(const rms::Decision& d);
  /// At a snapshot point: writes the WAL's buffered records, captures the
  /// state and hands it to a new writer thread.
  void maybe_snapshot(bool force);
  [[nodiscard]] SystemState capture_full() const;
  /// Waits for the snapshot in flight, if any, then counts it or rethrows
  /// its error.
  void join_writer();
  /// The system's registry, with instruments_ cleared whenever it changed.
  obs::Registry& registry();

  batch::BatchSystem& system_;
  IngestQueue& ingest_;
  ServiceConfig config_;
  bool durable_ = false;

  std::unique_ptr<WalWriter> wal_;
  Time last_admitted_;
  /// Admitted records not yet handed to the window, in the chunks
  /// IngestQueue::drain() handed over (after open(): the recovery tail's
  /// rest). held_[next_chunk_][next_pos_] goes out next; a chunk is freed
  /// when its last record goes out and erased at the next drain.
  std::vector<IngestChunk> held_;
  std::size_t next_chunk_ = 0;
  std::size_t next_pos_ = 0;
  /// Records handed to the window. A snapshot covers those that fired:
  /// all but the window's armed ones, which belong to the replayable tail.
  std::uint64_t handed_out_ = 0;
  IngestTotals wal_ingest_;
  std::uint64_t wal_decision_total_ = 0;
  std::uint64_t decisions_at_snapshot_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t ticks_ = 0;
  bool opened_ = false;
  bool recovered_ = false;

  /// While open() runs: the cursor over the WAL's unfired ingest tail and
  /// how many of its records are not read yet.
  std::unique_ptr<WalReader> tail_;
  std::uint64_t tail_left_ = 0;
  /// While open() runs: the cursor whose current frame is the next logged
  /// decision, and how many logged decisions are not re-made yet.
  std::unique_ptr<WalReader> logged_;
  std::uint64_t logged_left_ = 0;

  std::atomic<bool> stop_{false};

  /// Svc instrument handles, each resolved on first use in `registry`.
  struct Instruments {
    obs::Registry* registry = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Gauge* depth = nullptr;
    obs::Counter* snapshots = nullptr;
  };
  Instruments instruments_;

  /// The writer's failure, read after joining it.
  std::exception_ptr writer_error_;
  /// Set by the writer as its last step: tick() joins a finished writer
  /// without waiting.
  std::atomic<bool> writer_done_{false};
  /// The snapshot in flight. Declared last: it uses the members above.
  std::thread writer_;
};

}  // namespace dbs::svc
