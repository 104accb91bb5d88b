// Server-side storage of jobs and the FIFO of pending dynamic requests.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rms/job.hpp"

namespace dbs::rms {

class JobQueue {
 public:
  /// Takes ownership; id must be fresh and greater than every id ever
  /// added (the server allocates them sequentially). The job may be in any
  /// state (a durable restore re-adds running and finished jobs).
  Job& add(std::unique_ptr<Job> job);

  /// Destroys a finished job's storage. After this the id is unknown —
  /// at()/contains() behave as if the job never existed — so callers must
  /// only retire once no component will look the id up again (the server
  /// defers retirement by a latency-derived grace period). Amortized O(1):
  /// the id-ordered index tombstones the entry and compacts when
  /// tombstones outnumber live jobs.
  void retire(JobId id);

  /// Lowest live (non-retired) job id; `fallback` when no job is live.
  /// Monotone non-decreasing over time, so it can serve as the floor for
  /// caches windowed by job id.
  [[nodiscard]] std::uint64_t min_live_id(std::uint64_t fallback = 0) const;

  /// Jobs retired so far (observability).
  [[nodiscard]] std::uint64_t retired_count() const { return retired_total_; }

  [[nodiscard]] bool contains(JobId id) const { return jobs_.contains(id); }
  [[nodiscard]] Job& at(JobId id);
  [[nodiscard]] const Job& at(JobId id) const;

  // --- state transitions -------------------------------------------------
  // The only way to change a stored job's state: each validates exactly as
  // the Job transition it wraps, then moves the job between the per-state
  // indexes below, so they can never disagree with the jobs themselves.
  Job& mark_started(JobId id, Time now, cluster::Placement placement,
                    bool backfilled);
  Job& mark_dynqueued(JobId id);
  Job& mark_running_again(JobId id);
  Job& mark_completed(JobId id, Time now);
  Job& mark_cancelled(JobId id, Time now);
  /// Preemption or failure: back to Queued under the same id.
  Job& mark_requeued(JobId id);

  // --- per-state views -----------------------------------------------------
  // Reads of indexes the transitions keep current: O(1), or O(result) for
  // a copy. A returned reference is invalidated by the next transition.

  /// Jobs in Queued state, in submission (id) order.
  [[nodiscard]] const std::vector<const Job*>& queued() const {
    return queued_;
  }
  /// Copies queued() into `out`, reusing its capacity.
  void queued_into(std::vector<const Job*>& out) const {
    out.assign(queued_.begin(), queued_.end());
  }
  [[nodiscard]] std::size_t queued_count() const { return queued_.size(); }
  [[nodiscard]] bool has_queued() const { return !queued_.empty(); }

  /// Jobs in Running or DynQueued state, in id order.
  [[nodiscard]] const std::vector<const Job*>& running() const {
    return running_;
  }
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }
  [[nodiscard]] bool has_running() const { return !running_.empty(); }

  /// All live (non-retired) jobs, in id order.
  [[nodiscard]] std::vector<const Job*> all() const;

  /// Live job count (excludes retired jobs).
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  // --- dynamic request FIFO --------------------------------------------
  void push_dyn_request(DynRequest req);
  /// Pending dynamic requests in FIFO order.
  [[nodiscard]] const std::deque<DynRequest>& dyn_requests() const {
    return dyn_fifo_;
  }
  /// Removes the request with the given id; false if absent.
  bool remove_dyn_request(RequestId id);
  /// The pending request of `job`, if any.
  [[nodiscard]] const DynRequest* dyn_request_of(JobId job) const;

 private:
  void maybe_compact_order();

  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
  // Per-state indexes, each sorted by id. Submissions append to queued_
  // (ids only grow); the other transitions insert or erase at a binary-
  // searched position.
  std::vector<const Job*> queued_;
  std::vector<const Job*> running_;
  // Submission order as (id, job) pairs sorted by id, for all(),
  // min_live_id() and retire(). Retirement nulls the pointer (the id
  // stays, keeping the vector binary-searchable) and compaction erases the
  // tombstones once they outnumber live entries.
  std::vector<std::pair<JobId, Job*>> order_;
  std::size_t order_tombstones_ = 0;
  /// Lazily advanced index of the first live entry in order_.
  mutable std::size_t first_live_ = 0;
  std::uint64_t retired_total_ = 0;
  std::deque<DynRequest> dyn_fifo_;
};

}  // namespace dbs::rms
