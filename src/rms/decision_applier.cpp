#include "rms/decision_applier.hpp"

namespace dbs::rms {

bool DecisionApplier::start_job(JobId job, bool backfilled) {
  Decision d;
  d.kind = DecisionKind::StartJob;
  d.job = job;
  d.backfilled = backfilled;
  d.cores = server_.job(job).spec().cores;
  if (!dry_run_) d.applied = server_.start_job(job, backfilled);
  emit(d);
  return d.applied;
}

bool DecisionApplier::grant_dyn(const DynRequest& request) {
  Decision d;
  d.kind = DecisionKind::GrantDyn;
  d.job = request.job;
  d.request = request.id;
  d.cores = request.extra_cores;
  if (!dry_run_) d.applied = server_.grant_dyn(request.id);
  emit(d);
  return d.applied;
}

bool DecisionApplier::reject_dyn(const DynRequest& request,
                                 std::optional<Time> hint,
                                 RejectReason reason) {
  Decision d;
  d.kind = DecisionKind::RejectDyn;
  d.job = request.job;
  d.request = request.id;
  d.cores = request.extra_cores;
  d.reason = reason;
  d.hint = hint;
  if (dry_run_) {
    // Mirrors Server::reject_dyn: a live negotiation deadline keeps the
    // request queued instead of finalizing the rejection.
    d.deferred = server_.simulator().now() < request.deadline;
  } else {
    server_.reject_dyn(request.id, hint);
    d.deferred = server_.jobs().dyn_request_of(request.job) != nullptr;
  }
  emit(d);
  return d.deferred;
}

void DecisionApplier::preempt(JobId victim, JobId for_job) {
  Decision d;
  d.kind = DecisionKind::Preempt;
  d.job = victim;
  d.for_job = for_job;
  d.cores = server_.job(victim).allocated_cores();
  if (!dry_run_) server_.preempt(victim);
  emit(d);
}

void DecisionApplier::shrink_malleable(JobId victim, CoreCount cores,
                                       JobId for_job) {
  Decision d;
  d.kind = DecisionKind::ShrinkMalleable;
  d.job = victim;
  d.for_job = for_job;
  d.cores = cores;
  if (!dry_run_) server_.shrink_job(victim, cores);
  emit(d);
}

void DecisionApplier::reserve(JobId job, CoreCount cores, Time start) {
  Decision d;
  d.kind = DecisionKind::Reserve;
  d.job = job;
  d.cores = cores;
  d.start = start;
  emit(d);
}

}  // namespace dbs::rms
