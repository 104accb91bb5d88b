#include "rms/decision.hpp"

namespace dbs::rms {

std::string_view to_string(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::StartJob: return "start_job";
    case DecisionKind::GrantDyn: return "grant_dyn";
    case DecisionKind::RejectDyn: return "reject_dyn";
    case DecisionKind::Preempt: return "preempt";
    case DecisionKind::ShrinkMalleable: return "shrink_malleable";
    case DecisionKind::Reserve: return "reserve";
  }
  return "unknown";
}

std::string_view to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::Granted: return "granted";
    case RejectReason::NoIdleResources: return "no-idle-resources";
    case RejectReason::NodeFragmentation: return "node-fragmentation";
    case RejectReason::DeniedPermission: return "denied-permission";
    case RejectReason::DeniedSingleDelay: return "denied-single-delay";
    case RejectReason::DeniedTargetDelay: return "denied-target-delay";
    case RejectReason::AllocationFailed: return "allocation-failed";
  }
  return "unknown";
}

void decision_to_json(const Decision& d, std::string& out) {
  out += "{\"kind\": \"";
  out += to_string(d.kind);
  out += "\", \"job\": ";
  out += std::to_string(d.job.value());
  if (d.for_job.valid()) {
    out += ", \"for_job\": ";
    out += std::to_string(d.for_job.value());
  }
  if (d.request.valid()) {
    out += ", \"request\": ";
    out += std::to_string(d.request.value());
  }
  if (d.cores != 0) {
    out += ", \"cores\": ";
    out += std::to_string(d.cores);
  }
  switch (d.kind) {
    case DecisionKind::StartJob:
      out += ", \"backfilled\": ";
      out += d.backfilled ? "true" : "false";
      break;
    case DecisionKind::Reserve:
      out += ", \"start_us\": ";
      out += std::to_string(d.start.as_micros());
      break;
    case DecisionKind::RejectDyn:
      out += ", \"reason\": \"";
      out += to_string(d.reason);
      out += "\", \"deferred\": ";
      out += d.deferred ? "true" : "false";
      if (d.hint) {
        out += ", \"hint_us\": ";
        out += std::to_string(d.hint->as_micros());
      }
      break;
    default:
      break;
  }
  out += ", \"applied\": ";
  out += d.applied ? "true" : "false";
  out += '}';
}

std::string decisions_to_json(const std::vector<Decision>& decisions) {
  std::string out = "[";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (i > 0) out += ", ";
    decision_to_json(decisions[i], out);
  }
  out += ']';
  return out;
}

}  // namespace dbs::rms
