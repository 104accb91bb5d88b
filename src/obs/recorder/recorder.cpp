#include "obs/recorder/recorder.hpp"

#include "common/assert.hpp"

namespace dbs::obs::rec {
namespace {

std::uint32_t id32(std::uint64_t raw) {
  if (raw == ~std::uint64_t{0}) return kNoId;
  DBS_REQUIRE(raw < kNoId, "id exceeds the record format's 32-bit space");
  return static_cast<std::uint32_t>(raw);
}

std::uint64_t id64(std::uint32_t packed) {
  return packed == kNoId ? ~std::uint64_t{0} : packed;
}

}  // namespace

PackedRecord FlightRecorder::base(RecordType type, JobId job) const {
  PackedRecord r;
  r.type = type;
  r.t_us = now().as_micros();
  r.job = id32(job.value());
  return r;
}

PackedRecord decision_record(Time at, std::uint64_t iteration,
                             const rms::Decision& d) {
  PackedRecord r;
  r.type = static_cast<RecordType>(16 + static_cast<int>(d.kind));
  r.t_us = at.as_micros();
  r.iteration = static_cast<std::uint32_t>(iteration);
  r.job = id32(d.job.value());
  r.other = id32(d.for_job.value());
  r.request = id32(d.request.value());
  r.cores = d.cores;
  r.reason = static_cast<std::uint16_t>(d.reason);
  if (d.backfilled) r.flags |= kFlagBackfilled;
  if (d.applied) r.flags |= kFlagApplied;
  if (d.deferred) r.flags |= kFlagDeferred;
  switch (d.kind) {
    case rms::DecisionKind::Reserve:
      r.aux_us = d.start.as_micros();
      break;
    case rms::DecisionKind::RejectDyn:
      if (d.hint) {
        r.flags |= kFlagHasHint;
        r.aux_us = d.hint->as_micros();
      }
      break;
    default:
      break;
  }
  return r;
}

void FlightRecorder::record_decisions(
    Time at, std::uint64_t iteration,
    const std::vector<rms::Decision>& decisions) {
  if (!writer_.is_open()) return;
  for (const rms::Decision& d : decisions)
    writer_.append(decision_record(at, iteration, d));
}

void FlightRecorder::on_submit(const rms::Job& job) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::Submit, job.id());
  r.cores = job.spec().cores;
  r.aux_us = job.spec().walltime.as_micros();
  r.user = writer_.intern(job.spec().cred.user);
  writer_.append(r);
}

void FlightRecorder::on_job_start(const rms::Job& job) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::Start, job.id());
  r.cores = job.allocated_cores();
  r.aux_us = (now() - job.submit_time()).as_micros();
  if (job.was_backfilled()) r.flags |= kFlagBackfilled;
  writer_.append(r);
}

void FlightRecorder::on_job_finish(const rms::Job& job) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::Finish, job.id());
  r.cores = job.allocated_cores();
  writer_.append(r);
}

void FlightRecorder::on_dyn_request(const rms::Job& job,
                                    const rms::DynRequest& req) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::DynRequest, job.id());
  r.request = id32(req.id.value());
  r.cores = req.extra_cores;
  writer_.append(r);
}

void FlightRecorder::on_dyn_grant(const rms::Job& job,
                                  const rms::DynRequest& req, CoreCount extra) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::DynGrant, job.id());
  r.request = id32(req.id.value());
  r.cores = extra;
  writer_.append(r);
}

void FlightRecorder::on_dyn_reject(const rms::Job& job,
                                   const rms::DynRequest& req) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::DynReject, job.id());
  r.request = id32(req.id.value());
  r.cores = req.extra_cores;
  writer_.append(r);
}

void FlightRecorder::on_dyn_release(const rms::Job& job, CoreCount cores) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::DynRelease, job.id());
  r.cores = cores;
  writer_.append(r);
}

void FlightRecorder::on_malleable_shrink(const rms::Job& job,
                                         CoreCount cores) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::MalleableShrink, job.id());
  r.cores = cores;
  writer_.append(r);
}

void FlightRecorder::on_requeue(const rms::Job& job) {
  if (!writer_.is_open()) return;
  // The allocation is already released by requeue time; record the size
  // the job will re-request.
  PackedRecord r = base(RecordType::Requeue, job.id());
  r.cores = job.spec().cores;
  writer_.append(r);
}

void FlightRecorder::on_nodes_lost(const rms::Job& job, CoreCount lost) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::NodesLost, job.id());
  r.cores = lost;
  writer_.append(r);
}

void FlightRecorder::on_cancel(const rms::Job& job, CoreCount released) {
  if (!writer_.is_open()) return;
  PackedRecord r = base(RecordType::Cancel, job.id());
  r.cores = released;
  writer_.append(r);
}

rms::Decision record_to_decision(const PackedRecord& r) {
  DBS_REQUIRE(is_decision(r.type), "not a decision record");
  rms::Decision d;
  d.kind =
      static_cast<rms::DecisionKind>(static_cast<std::uint8_t>(r.type) - 16);
  d.job = JobId{id64(r.job)};
  d.for_job = JobId{id64(r.other)};
  d.request = RequestId{id64(r.request)};
  d.cores = r.cores;
  d.backfilled = r.has(kFlagBackfilled);
  d.applied = r.has(kFlagApplied);
  d.deferred = r.has(kFlagDeferred);
  d.reason = static_cast<rms::RejectReason>(r.reason);
  switch (d.kind) {
    case rms::DecisionKind::Reserve:
      d.start = Time::from_micros(r.aux_us);
      break;
    case rms::DecisionKind::RejectDyn:
      if (r.has(kFlagHasHint)) d.hint = Time::from_micros(r.aux_us);
      break;
    default:
      break;
  }
  return d;
}

}  // namespace dbs::obs::rec
