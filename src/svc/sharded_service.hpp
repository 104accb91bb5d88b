// The sharded always-on service: one ServiceLoop per scheduler shard, fed
// from a single global IngestQueue through the deterministic ShardRouter.
//
// Layout: the driver thread drains the global queue (total ticket order),
// routes every submission to its shard, and pushes it into that shard's
// private IngestQueue; then all K shard loops tick concurrently on the
// ShardedSystem's thread pool. Each shard owns its whole world — simulator,
// WAL (state_dir/shard-K/), snapshots, metrics registry — so the fan-out
// shares nothing mutable and a run at any thread count produces the same
// per-shard WAL bytes, decision streams and metrics as ticking the loops
// one after another.
//
// Recovery is per-shard and parallel: every shard restores its own
// snapshot and replays its own WAL tail independently. The router's
// least-loaded ledger is rebuilt from the per-shard WAL submit totals
// (cumulative, never decremented — exactly why the ledger only grows), so
// a reopened service routes every future job to the same shard a
// never-restarted one would have picked.
//
// Cancels: a JobId is only meaningful inside the shard that issued it, so
// cancels do not ride the global queue (route() has nothing to hash).
// Callers cancel through cancel(shard, ...), naming the shard the submit
// was routed to.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "batch/sharded_system.hpp"
#include "svc/service_loop.hpp"

namespace dbs::svc {

class ShardedService {
 public:
  /// Wires one ServiceLoop per shard of `system`. `config.state_dir` is
  /// the base directory: shard k persists under <state_dir>/shard-<k>
  /// (empty = non-durable). `snapshot_every`, `tick`, `max_ticks` etc.
  /// apply per shard; the driver owns wall_sleep pacing.
  ShardedService(batch::ShardedSystem& system, IngestQueue& ingest,
                 const ServiceConfig& config);
  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Durable config only: recovers every shard (snapshot + WAL replay),
  /// concurrently on the system's shard pool, then seeds the router ledger
  /// from the recovered WALs. Returns true when any shard had prior state.
  bool open();

  /// Drives the service until the global ingest is closed and every shard
  /// drains — or stop()/max_ticks intervenes. Each cycle: route the global
  /// queue into the shard queues, then tick all K loops concurrently.
  /// Durable shards write their final snapshot on the way out. Returns
  /// driver cycles executed.
  std::uint64_t run();

  /// One driver cycle (route + parallel shard ticks).
  void tick();

  /// qdel on shard `k` (see the header comment on cancel routing).
  std::uint64_t cancel(std::size_t k, Time requested, JobId job);

  /// Thread-safe: makes run() return after the current cycle.
  void stop();

  [[nodiscard]] bool drained() const;
  [[nodiscard]] std::size_t shard_count() const { return loops_.size(); }
  [[nodiscard]] ServiceLoop& loop(std::size_t k) { return *loops_.at(k); }
  [[nodiscard]] IngestQueue& shard_queue(std::size_t k) {
    return *queues_.at(k);
  }
  /// Sum of per-shard WAL ingest records (the feeder-resume skip count).
  [[nodiscard]] std::uint64_t wal_ingest_total() const;
  [[nodiscard]] std::uint64_t wal_decision_total() const;
  [[nodiscard]] std::uint64_t snapshots_written() const;
  [[nodiscard]] bool recovered() const { return recovered_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  /// Drains the global queue and routes every record into its shard's
  /// private queue; propagates close() once the global stream ends.
  void route_pending();

  batch::ShardedSystem& system_;
  IngestQueue& ingest_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<IngestQueue>> queues_;
  std::vector<std::unique_ptr<ServiceLoop>> loops_;
  std::vector<IngestRecord> route_buf_;
  bool closed_shards_ = false;
  bool recovered_ = false;
  std::uint64_t ticks_ = 0;
  std::atomic<bool> stop_{false};
};

/// The per-shard durable-state directory: <base>/shard-<k>.
[[nodiscard]] std::string shard_state_dir(const std::string& base,
                                          std::size_t k);

}  // namespace dbs::svc
