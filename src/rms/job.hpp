// Job records kept by the server.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cluster/allocation_policy.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "rms/application.hpp"

namespace dbs::rms {

/// Server-side job lifecycle. `DynQueued` is the paper's special state a
/// running job enters while one of its dynamic requests awaits scheduling.
enum class JobState : std::uint8_t {
  Queued,     ///< submitted, awaiting first allocation
  Running,    ///< processes executing
  DynQueued,  ///< running, with a dynamic request pending at the server
  Completed,  ///< finished normally
  Cancelled,  ///< removed by qdel or preemption-without-requeue
};

[[nodiscard]] std::string_view to_string(JobState s);

/// Everything the user supplies at qsub time.
struct JobSpec {
  std::string name;
  Credentials cred;
  CoreCount cores = 1;          ///< initial (static) allocation size
  /// Torque-style processes-per-node: the request is placed as
  /// ceil(cores/ppn) chunks on distinct nodes. 0 = the cluster's
  /// cores-per-node (whole-node chunks, the common qsub nodes=N:ppn=all).
  CoreCount ppn = 0;
  Duration walltime;            ///< requested time slice
  bool exclusive_priority = false;  ///< ESP Z-job drain rule
  bool preemptible = false;     ///< may be preempted to serve dynamic requests
  /// Malleable jobs: the scheduler may shrink the running job down to this
  /// many cores at its discretion (and the cores can serve dynamic
  /// requests, §II-B). 0 = rigid (not malleable).
  CoreCount malleable_min = 0;
  std::string type_tag;         ///< free-form label (e.g. ESP job type letter)

  [[nodiscard]] bool malleable() const { return malleable_min > 0; }
  [[nodiscard]] bool operator==(const JobSpec&) const = default;
};

/// One pending dynamic (tm_dynget) request at the server.
struct DynRequest {
  RequestId id;
  JobId job;
  CoreCount extra_cores = 0;
  Time submitted;
  int attempt = 1;              ///< 1 = first ask, 2 = retry, ...
  Time deadline;                ///< == submitted when no negotiation timeout

  [[nodiscard]] bool operator==(const DynRequest&) const = default;
};

/// A job record. Owned by the JobQueue; identity is the JobId.
class Job {
 public:
  Job(JobId id, JobSpec spec, std::unique_ptr<Application> app, Time submit);

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  [[nodiscard]] JobId id() const { return id_; }
  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] JobState state() const { return state_; }
  [[nodiscard]] Application& app() const { return *app_; }

  [[nodiscard]] Time submit_time() const { return submit_; }
  [[nodiscard]] Time start_time() const;
  [[nodiscard]] Time end_time() const;
  [[nodiscard]] bool started() const { return start_.has_value(); }
  [[nodiscard]] bool finished() const {
    return state_ == JobState::Completed || state_ == JobState::Cancelled;
  }
  [[nodiscard]] bool is_running() const {
    return state_ == JobState::Running || state_ == JobState::DynQueued;
  }

  /// Reservation horizon: resources are held until start + walltime.
  [[nodiscard]] Time walltime_end() const;

  [[nodiscard]] const cluster::Placement& placement() const { return placement_; }
  [[nodiscard]] CoreCount allocated_cores() const { return placement_.total_cores(); }

  [[nodiscard]] bool was_backfilled() const { return backfilled_; }
  [[nodiscard]] int dyn_requests_made() const { return dyn_requests_made_; }
  [[nodiscard]] int dyn_grants() const { return dyn_grants_; }
  [[nodiscard]] int dyn_rejects() const { return dyn_rejects_; }
  /// A job whose every dynamic request succeeded (and made at least one)
  /// counts as a "satisfied" evolving job in Table II. Any final rejection
  /// disqualifies the job, even alongside grants.
  [[nodiscard]] bool dyn_satisfied() const {
    return dyn_requests_made_ > 0 && dyn_rejects_ == 0;
  }

  // --- allocation changes of a running job (validated) ------------------
  void expand(const cluster::Placement& extra);
  void shrink(const cluster::Placement& freed);

  void count_dyn_request() { ++dyn_requests_made_; }
  void count_dyn_grant() { ++dyn_grants_; }
  void count_dyn_reject() { ++dyn_rejects_; }

  /// Full mid-lifecycle state, for durable snapshots. Unlike the
  /// transition methods above this performs no validation sequencing: the
  /// state store re-creates a job exactly as the saved one was.
  struct Restore {
    JobState state = JobState::Queued;
    std::optional<Time> start;
    std::optional<Time> end;
    cluster::Placement placement;
    bool backfilled = false;
    int dyn_requests_made = 0;
    int dyn_grants = 0;
    int dyn_rejects = 0;

    [[nodiscard]] bool operator==(const Restore&) const = default;
  };
  [[nodiscard]] static std::unique_ptr<Job> restore(
      JobId id, JobSpec spec, std::unique_ptr<Application> app, Time submit,
      const Restore& r);

 private:
  // State transitions (validated). Private: JobQueue wraps each one so its
  // per-state indexes move with the job.
  friend class JobQueue;
  void mark_started(Time at, cluster::Placement placement, bool backfilled);
  void mark_dynqueued();
  void mark_running_again();
  void mark_completed(Time at);
  void mark_cancelled(Time at);
  /// Preemption: back to Queued, all progress and placement dropped.
  void mark_requeued();

  JobId id_;
  JobSpec spec_;
  std::unique_ptr<Application> app_;
  JobState state_ = JobState::Queued;
  Time submit_;
  std::optional<Time> start_;
  std::optional<Time> end_;
  cluster::Placement placement_;
  bool backfilled_ = false;
  int dyn_requests_made_ = 0;
  int dyn_grants_ = 0;
  int dyn_rejects_ = 0;
};

}  // namespace dbs::rms
