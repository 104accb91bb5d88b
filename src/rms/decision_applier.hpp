// Executes the scheduler's typed decision stream against the server — the
// single seam through which scheduling decisions become server actions.
//
// Live mode forwards each decision to the matching Server command in the
// order it is emitted (deciding stays interleaved with acting exactly as
// Algorithm 2 requires: a grant changes what later requests are measured
// against). Dry-run mode records the stream without touching the server,
// assuming every action succeeds, which turns the whole pipeline into a
// what-if iteration (dbsim --dry-run-iteration).
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "rms/decision.hpp"
#include "rms/server.hpp"

namespace dbs::rms {

class DecisionApplier {
 public:
  explicit DecisionApplier(Server& server) : server_(server) {}

  DecisionApplier(const DecisionApplier&) = delete;
  DecisionApplier& operator=(const DecisionApplier&) = delete;

  /// Write-ahead hook: invoked once per executed decision (after the
  /// server action, with the outcome filled in), never during dry runs.
  /// The service layer appends each to the WAL; null disables.
  void set_decision_sink(std::function<void(const Decision&)> sink) {
    sink_ = std::move(sink);
  }

  /// Clears the stream for a new iteration. Storage is reused.
  void begin_iteration(bool dry_run) {
    dry_run_ = dry_run;
    decisions_.clear();
  }

  [[nodiscard]] bool dry_run() const { return dry_run_; }

  /// The decisions emitted since begin_iteration(), in emission order.
  [[nodiscard]] const std::vector<Decision>& decisions() const {
    return decisions_;
  }

  /// Starts a queued job. False when node-level fragmentation defeats the
  /// aggregate plan (the job stays queued; dry-run assumes success).
  bool start_job(JobId job, bool backfilled);

  /// Grants a pending dynamic request. False when the cores are no longer
  /// allocatable (dry-run assumes success).
  bool grant_dyn(const DynRequest& request);

  /// Rejects a pending dynamic request with an availability hint and the
  /// audit `reason`. Returns true when the request stayed queued
  /// (negotiation deferral) — in dry-run, decided from the request's
  /// deadline, mirroring Server::reject_dyn.
  bool reject_dyn(const DynRequest& request, std::optional<Time> hint,
                  RejectReason reason);

  /// Preempts a running job to free cores for `for_job`'s request.
  void preempt(JobId victim, JobId for_job);

  /// Shrinks a running malleable job by `cores` for `for_job`'s request.
  void shrink_malleable(JobId victim, CoreCount cores, JobId for_job);

  /// Records a StartLater reservation (no server action; the reservation
  /// lives in the scheduler's plan).
  void reserve(JobId job, CoreCount cores, Time start);

 private:
  /// Records the decision and feeds the write-ahead sink (live mode only).
  void emit(const Decision& d) {
    decisions_.push_back(d);
    if (sink_ && !dry_run_) sink_(d);
  }

  Server& server_;
  bool dry_run_ = false;
  std::vector<Decision> decisions_;
  std::function<void(const Decision&)> sink_;
};

}  // namespace dbs::rms
