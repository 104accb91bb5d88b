// Concurrent submission ingest: the always-on service's front door.
//
// Producer threads (qsub shims, trace feeders, RPC handlers) push
// submissions and cancels; the single-threaded scheduler loop drains them
// in batches at iteration boundaries. One mutex guards the queued records,
// stored in chunks of at most kIngestChunk: a push draws its ticket and
// appends its record to the last chunk in the same critical section, so
// the chunks always hold a contiguous run of tickets, and a drain, which
// hands the chunks over whole, yields the exact ticket sequence 0,1,2,...
// whatever the thread interleaving. Replaying that sequence
// single-threaded through the same Submission lane is byte-identical to
// the live run (the differential test in tests/svc exercises exactly
// this). A chunk never grows past kIngestChunk records, so a backlog of
// any size is held once: no doubling copies more than one chunk of it,
// and a consumer frees each chunk as soon as it is done with it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
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

/// Running totals over a sequence of ingest records: how many, and the
/// submits among them with their summed core weight (max(cores, 1) per
/// submit, the shard router's charging rule).
struct IngestTotals {
  std::uint64_t records = 0;
  std::uint64_t submits = 0;
  std::uint64_t submit_cores = 0;

  void add(const IngestRecord& r);
};

/// Records in ticket order, at most kIngestChunk of them: the unit the
/// queue stores and drain() hands over. A chunk grows as a vector does,
/// so a drain of a few records hands over a small one, and the queue
/// starts the next chunk at kIngestChunk records.
using IngestChunk = std::vector<IngestRecord>;
inline constexpr std::size_t kIngestChunk = 256;

class IngestQueue {
 public:
  IngestQueue() = default;

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
  /// Moves every queued chunk onto the end of `out`, in ticket order: each
  /// batch continues the sequence 0,1,2,... exactly where the previous
  /// one ended. Returns the number of records released. Callers that are
  /// idle when nothing is queued read depth() first and skip the lock.
  std::size_t drain(std::vector<IngestChunk>& out);

  /// Records queued and not yet drained: never more than pushed() minus
  /// the records drained so far.
  [[nodiscard]] std::size_t depth() const {
    return depth_.load(std::memory_order_acquire);
  }
  /// Tickets issued so far.
  [[nodiscard]] std::uint64_t pushed() const {
    return ticket_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t push(IngestRecord&& r);

  std::mutex mutex_;
  std::vector<IngestChunk> chunks_;  ///< guarded by mutex_
  /// Both written under mutex_ only; atomic so depth() and pushed() read
  /// them without it.
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<std::size_t> depth_{0};
  std::atomic<bool> closed_{false};
  /// Consumer-private: the ticket the next drained batch must start with.
  std::uint64_t next_seq_ = 0;
};

}  // namespace dbs::svc
