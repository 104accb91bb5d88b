// The top-level façade: one object wiring simulator, cluster, server, moms,
// scheduler and metrics into a runnable batch system. This is the public
// entry point a downstream user of the library interacts with.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "apps/app_model.hpp"
#include "cluster/cluster.hpp"
#include "core/maui_scheduler.hpp"
#include "metrics/recorder.hpp"
#include "rms/mom.hpp"
#include "rms/server.hpp"
#include "sim/simulator.hpp"
#include "workload/esp.hpp"
#include "workload/source.hpp"

namespace dbs::svc {
class IngestQueue;
class ServiceLoop;
struct ServiceConfig;
}

namespace dbs::batch {

/// Arrivals submit_stream keeps armed at any instant unless told otherwise.
inline constexpr std::size_t kSubmissionWindow = 1024;

struct SystemConfig {
  cluster::ClusterSpec cluster;
  rms::LatencyModel latency;
  core::SchedulerConfig scheduler;
  /// Speedup model used when materializing evolving workload jobs.
  apps::SpeedupModel speedup = apps::SpeedupModel::PaperDet;
  /// Reclaim a job's storage (Job object, application, cached state) a
  /// latency-derived grace period after it completes, so multi-month
  /// replays run at O(active jobs) memory instead of O(all jobs ever).
  bool retire_finished_jobs = false;
  /// Fold finished jobs into aggregate metrics instead of keeping a
  /// per-job record forever (metrics::Recorder streaming mode). Summary
  /// totals are identical; per-job series are unavailable.
  bool streaming_metrics = false;
};

class BatchSystem {
 public:
  explicit BatchSystem(const SystemConfig& config);

  BatchSystem(const BatchSystem&) = delete;
  BatchSystem& operator=(const BatchSystem&) = delete;

  /// qsub now. Returns the job id.
  JobId submit_now(rms::JobSpec spec, std::unique_ptr<rms::Application> app);

  /// Schedules a qsub at absolute time `at` (applies the client→server
  /// latency on top).
  void submit_at(Time at, rms::JobSpec spec,
                 std::function<std::unique_ptr<rms::Application>()> app_factory);

  /// Injects a whole workload (ESP, synthetic or trace).
  void submit_workload(const wl::Workload& workload);

  /// Streams submissions from `source`, keeping at most `window` of them
  /// armed in the event queue at any instant — O(window) memory for a
  /// trace of any length. The source must yield non-decreasing
  /// submission times. Produces the exact event ordering of
  /// submit_workload on the same jobs: both paths use the event queue's
  /// Submission lane, which fires before same-time events scheduled
  /// during the run regardless of push order. Throws while another source
  /// is live: it has not returned false, or its arrivals have not all
  /// fired. Called again with the attached source, it re-arms it: a
  /// source that returned false is asked again only then, once its owner
  /// has more to yield. `source` must outlive the run() that drains it.
  void submit_stream(wl::SubmissionSource& source,
                     std::size_t window = kSubmissionWindow);
  /// Arrivals yielded and armed, not yet fired.
  [[nodiscard]] std::size_t armed_submissions() const { return armed_; }

  /// Runs the simulation to completion (all events drained).
  void run();
  /// Runs until `until` (events at exactly `until` fire).
  void run_until(Time until);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] rms::Server& server() { return server_; }
  [[nodiscard]] rms::MomManager& moms() { return moms_; }
  [[nodiscard]] core::MauiScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const metrics::Recorder& recorder() const { return recorder_; }
  /// Mutable recorder access for the durable-state restore path.
  [[nodiscard]] metrics::Recorder& recorder_mut() { return recorder_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  // --- always-on service mode (src/svc/) ----------------------------------
  // Defined in src/svc/batch_service.cpp: the service layer sits above the
  // one-shot core, which never depends on it.

  /// Wires a concurrent ingest queue into this system and creates the
  /// service loop. Call once, before anything is submitted or run.
  svc::ServiceLoop& attach_ingest(svc::IngestQueue& ingest,
                                  const svc::ServiceConfig& config);
  /// Recovers durable state from the attached service's state_dir (see
  /// svc::ServiceLoop::open). Returns true when prior state was found.
  bool open_state();
  /// Runs the service loop until drained or stopped; returns ticks run.
  std::uint64_t run_service();
  /// The attached service loop, or nullptr in one-shot mode.
  [[nodiscard]] svc::ServiceLoop* service() { return service_.get(); }

  /// Attaches the observability sinks to every component (server, moms,
  /// scheduler, DFS): the tracer (nullable; its clock is pointed at the
  /// simulator) receives every trace event, the registry (null selects the
  /// global one) every metric, and the flight recorder (nullable; clock
  /// wired like the tracer's) every lifecycle event and applied decision.
  void set_sinks(const obs::Sinks& sinks);

 private:
  /// Hands one arrival to the server: a qdel when `s.cancel` is set, else
  /// a qsub. Shared by the materialized and streaming paths.
  void deliver(wl::SubmitSpec&& s);
  /// Arms arrivals from the source until `window_` are armed or it is dry.
  void fill_window();
  /// An armed event: takes the oldest arrival, refills, then delivers it.
  void fire_window();

  SystemConfig config_;
  sim::Simulator sim_;
  cluster::Cluster cluster_;
  rms::Server server_;
  rms::MomManager moms_;
  metrics::Recorder recorder_;
  core::MauiScheduler scheduler_;
  obs::Tracer* tracer_ = nullptr;  ///< last sinks' tracer; flushed after run()
  // The submission window. Arrivals fire in the order they were armed, so
  // the armed_ of them wait in a ring from ring_[head_]; it gains a slot
  // only while every slot is armed, to at most window_ slots.
  wl::SubmissionSource* source_ = nullptr;
  bool source_dry_ = false;  ///< returned false; asked again once re-armed
  std::size_t window_ = kSubmissionWindow;
  std::vector<wl::SubmitSpec> ring_;
  std::size_t head_ = 0;
  std::size_t armed_ = 0;
  Time last_armed_;
  /// shared_ptr so this header needs no complete svc::ServiceLoop type
  /// (the control block owns the deleter, captured where it is complete).
  std::shared_ptr<svc::ServiceLoop> service_;
};

}  // namespace dbs::batch
