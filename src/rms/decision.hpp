// The typed decision vocabulary between the scheduler and the server.
//
// Pipeline stages never mutate the server directly; they emit Decisions
// through a DecisionApplier (decision_applier.hpp), which executes them and
// keeps the per-iteration stream. The stream is the scheduler's command
// log: replayable, printable (dbsim --dry-run-iteration), and the natural
// seam for a future distributed decide/commit split.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::rms {

enum class DecisionKind {
  StartJob,         ///< start a queued static job (possibly backfilled)
  GrantDyn,         ///< grant a pending dynamic request
  RejectDyn,        ///< reject (or defer, under negotiation) a request
  Preempt,          ///< preempt a running job to free cores for a request
  ShrinkMalleable,  ///< shrink a running malleable job for a request
  Reserve,          ///< keep a StartLater reservation (no server action)
};

[[nodiscard]] std::string_view to_string(DecisionKind kind);

/// Why a dynamic request was not granted (the audit reason of a RejectDyn
/// decision; every other decision carries Granted). The values are stable
/// on-disk ids: the WAL and the flight recorder store them.
enum class RejectReason : std::uint16_t {
  Granted,            ///< "granted": not a rejection
  NoIdleResources,    ///< "no-idle-resources": the measurement found no fit
  NodeFragmentation,  ///< "node-fragmentation": no chunked placement fits
  DeniedPermission,   ///< "denied-permission": DFSDYNDELAYPERM=0
  DeniedSingleDelay,  ///< "denied-single-delay": a per-job cap
  DeniedTargetDelay,  ///< "denied-target-delay": a per-interval cap
  AllocationFailed,   ///< "allocation-failed": the grant failed to apply
};

/// The reason's audit string; "unknown" for a value outside the enum.
[[nodiscard]] std::string_view to_string(RejectReason reason);

/// One scheduler decision. Which fields are meaningful depends on `kind`;
/// unused ids stay invalid() and unused counts stay 0.
struct Decision {
  DecisionKind kind = DecisionKind::Reserve;
  /// The job acted on: started, granted/rejected owner, preemption or
  /// shrink victim, or reserved.
  JobId job;
  /// The dynamic request's owner for Preempt/ShrinkMalleable (the job the
  /// cores are freed for).
  JobId for_job;
  /// The dynamic request (GrantDyn/RejectDyn).
  RequestId request;
  /// Extra cores granted/rejected, cores shrunk, or cores reserved.
  CoreCount cores = 0;
  /// Reserve: the planned start time.
  Time start;
  /// StartJob: planned out of priority order.
  bool backfilled = false;
  /// Outcome of executing the decision (true in dry-run, where execution is
  /// assumed to succeed). StartJob/GrantDyn can fail on node-level
  /// fragmentation.
  bool applied = true;
  /// RejectDyn: the request stayed queued (negotiation deferral).
  bool deferred = false;
  /// RejectDyn: audit reason (Granted elsewhere).
  RejectReason reason = RejectReason::Granted;
  /// RejectDyn: availability hint returned to the application, if any.
  std::optional<Time> hint;
};

/// Appends one decision as a JSON object (stable key order; the dry-run
/// printer and tests rely on it).
void decision_to_json(const Decision& decision, std::string& out);

/// JSON array of a whole stream.
[[nodiscard]] std::string decisions_to_json(
    const std::vector<Decision>& decisions);

}  // namespace dbs::rms
