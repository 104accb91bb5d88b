// Concurrent submission ingest: the always-on service's front door.
//
// N producer threads (qsub shims, trace feeders, RPC handlers) push
// submissions and cancels; the single-threaded scheduler loop drains them
// in batches at iteration boundaries. A global atomic ticket gives every
// record a total order, so a drain — whatever the thread interleaving that
// produced it — yields one canonical sequence, and replaying that sequence
// single-threaded through the same Submission lane is byte-identical to
// the live run (the differential test in tests/svc exercises exactly
// this). Mutex-sharded MPSC: producers contend only per shard (ticket %
// kShards), the consumer swaps each shard's vector out under its lock and
// places each record by ticket outside any lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "rms/job.hpp"
#include "workload/esp.hpp"

namespace dbs::svc {

enum class IngestKind : std::uint8_t {
  Submit = 1,  ///< qsub: spec + behavior
  Cancel = 2,  ///< qdel: job
};

/// One ingested client command. `requested` is the client's submission
/// time on the service clock; `admitted` is stamped by the drain loop
/// (monotone, never in the sim's past) and is the time the event actually
/// fires — the WAL records it so a replay reproduces the admission
/// schedule exactly.
struct IngestRecord {
  std::uint64_t seq = 0;  ///< global ticket: total order across producers
  IngestKind kind = IngestKind::Submit;
  Time requested;
  Time admitted;
  rms::JobSpec spec;      ///< Submit
  wl::Behavior behavior;  ///< Submit
  JobId job;              ///< Cancel

  [[nodiscard]] bool operator==(const IngestRecord&) const = default;
};

class IngestQueue {
 public:
  IngestQueue();

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  // --- producer side (thread-safe) ----------------------------------------
  /// qsub. Returns the record's ticket.
  std::uint64_t submit(Time requested, rms::JobSpec spec,
                       wl::Behavior behavior);
  /// qdel. Returns the record's ticket.
  std::uint64_t cancel(Time requested, JobId job);
  /// Signals end-of-stream: no further pushes will arrive. Producers call
  /// this once they are done; the service loop drains what remains, then
  /// runs the system dry and exits.
  void close() { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  // --- consumer side (single-threaded) ------------------------------------
  /// Moves the seq-contiguous prefix of everything queued into `out`
  /// (appended), in ticket order. Records that arrived past a gap — a
  /// producer drew an earlier ticket but has not landed it in its shard
  /// yet — are held back until the straggler arrives, so successive drains
  /// always yield the exact ticket sequence 0,1,2,… regardless of thread
  /// interleaving. Returns the number of records released.
  std::size_t drain(std::vector<IngestRecord>& out);

  /// Records currently queued (approximate under concurrent pushes).
  [[nodiscard]] std::size_t depth() const {
    return depth_.load(std::memory_order_relaxed);
  }
  /// Tickets issued so far.
  [[nodiscard]] std::uint64_t pushed() const {
    return ticket_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    std::mutex mutex;
    std::vector<IngestRecord> items;
  };

  std::uint64_t push(IngestRecord&& r);

  static constexpr std::size_t kShards = 8;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<std::size_t> depth_{0};
  std::atomic<bool> closed_{false};
  /// Consumer-private: records swept from the shards but not yet
  /// releasable because an earlier ticket is still in flight. Slot k holds
  /// ticket next_seq_ + k once it has arrived.
  std::vector<std::optional<IngestRecord>> stash_;
  /// Consumer-private: the next ticket drain() will release.
  std::uint64_t next_seq_ = 0;
};

}  // namespace dbs::svc
