// Server-side storage of jobs and the FIFO of pending dynamic requests.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
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
  /// defers retirement by a latency-derived grace period). O(1).
  void retire(JobId id);

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

  /// All live (non-retired) jobs, in id order. Sorts them: for snapshots,
  /// status listings and a restore, not for the scheduling path.
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
  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
  // Per-state indexes, each sorted by id. Submissions append to queued_
  // (ids only grow); the other transitions insert or erase at a binary-
  // searched position.
  std::vector<const Job*> queued_;
  std::vector<const Job*> running_;
  JobId last_added_ = JobId::invalid();  ///< add() takes ids above it
  std::uint64_t retired_total_ = 0;
  std::deque<DynRequest> dyn_fifo_;
};

}  // namespace dbs::rms
