// The dynamic-fairness engine: admission control and delay accounting for
// dynamic allocations (paper §III-C step 14 and §III-D).
//
// For every candidate dynamic allocation the scheduler measures the delays
// it would inflict on protected queued jobs; the engine decides whether the
// allocation is fair. On commit, inflicted delays are charged (a) to each
// delayed job (for the single-job cap) and (b) to each credential entity of
// the delayed job's owner (for the per-interval cumulative cap). At each
// DFSINTERVAL boundary the accumulated entity delays are multiplied by
// DFSDECAY, carrying a configurable fraction of history forward.
#pragma once

#include <array>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "core/dfs_policy.hpp"

namespace dbs::rms {
class Job;
}

namespace dbs::obs {
class Counter;
class Tracer;
class Registry;
struct Sinks;
}

namespace dbs::core {

/// One queued job delayed by a candidate dynamic allocation.
struct DelayedJob {
  const rms::Job* job = nullptr;
  /// Additional wait vs. the current plan; negative when the job moves
  /// earlier. Only positive delays count.
  Duration delay;
};

/// Why a request was rejected (for logging/metrics/negotiation).
enum class DfsVerdict {
  Allowed,
  DeniedPermission,   ///< a delayed job's entity has DFSDYNDELAYPERM=0
  DeniedSingleDelay,  ///< a per-job delay cap would be exceeded
  DeniedTargetDelay,  ///< a per-interval cumulative cap would be exceeded
};

[[nodiscard]] std::string_view to_string(DfsVerdict v);

class DfsEngine {
 public:
  explicit DfsEngine(DfsConfig config, Time start = Time::epoch());

  /// Rolls interval accounting forward to `now` (applies decay at each
  /// boundary crossed).
  void advance_to(Time now);

  /// Would delaying `delays` on behalf of `requester` be fair? Delays to
  /// jobs of the requester's own user are ignored (paper rule). Pure.
  [[nodiscard]] DfsVerdict admit(const Credentials& requester,
                                 const std::vector<DelayedJob>& delays) const;

  /// Charges the delays (call only after admit() allowed them and the
  /// allocation was committed).
  void commit(const Credentials& requester,
              const std::vector<DelayedJob>& delays);

  /// A queued job started: its per-job delay record is no longer needed.
  void on_job_started(JobId id) { job_delay_.erase(id); }

  /// Observability sinks: the tracer (nullable) receives per-decision audit
  /// events ("admit" verdicts with the violated rule, "commit" charges,
  /// interval rolls); verdict counters land in the registry (null selects
  /// the global one).
  void set_sinks(const obs::Sinks& sinks);

  // --- introspection (tests, reports) ------------------------------------
  [[nodiscard]] Duration accumulated(DfsEntityKind kind,
                                     const std::string& name) const;
  [[nodiscard]] Duration job_delay(JobId id) const;
  [[nodiscard]] const DfsConfig& config() const { return config_; }
  [[nodiscard]] Time interval_start() const { return interval_start_; }

  /// Serializable ledger state for durable snapshots: the five entity
  /// accumulators (indexed by DfsEntityKind order: user, group, account,
  /// class, qos) plus the per-job delay records, each sorted by key so the
  /// encoded form is byte-stable across processes.
  struct State {
    Time interval_start;
    std::array<std::vector<std::pair<std::string, Duration>>, 5> entities;
    std::vector<std::pair<JobId, Duration>> job_delays;
    [[nodiscard]] bool operator==(const State&) const = default;
  };
  [[nodiscard]] State save_state() const;
  void restore_state(const State& s);

 private:
  [[nodiscard]] DfsVerdict admit_impl(
      const Credentials& requester,
      const std::vector<DelayedJob>& delays) const;

  /// Accumulated delay for one entity dimension within the current interval.
  using EntityAcc = std::unordered_map<std::string, Duration>;
  EntityAcc& acc_of(DfsEntityKind kind);
  [[nodiscard]] const EntityAcc& acc_of(DfsEntityKind kind) const;

  DfsConfig config_;
  Time interval_start_;
  EntityAcc acc_user_, acc_group_, acc_account_, acc_class_, acc_qos_;
  std::unordered_map<JobId, Duration> job_delay_;
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_;  ///< never null; defaults to the global one
  /// One counter per DfsVerdict, each resolved on first use and cleared by
  /// set_sinks (see obs::lazy_counter). admit() is logically pure; the
  /// handles are a cache.
  mutable std::array<obs::Counter*, 4> verdict_counters_{};
};

}  // namespace dbs::core
