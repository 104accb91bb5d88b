#include "batch/batch_system.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace dbs::batch {

void BatchSystem::set_sinks(const obs::Sinks& sinks) {
  if (sinks.tracer != nullptr)
    sinks.tracer->set_clock([this] { return sim_.now(); });
  if (sinks.recorder != nullptr)
    sinks.recorder->set_clock([this] { return sim_.now(); });
  tracer_ = sinks.tracer;
  server_.set_sinks(sinks);
  moms_.set_sinks(sinks);
  scheduler_.set_sinks(sinks);
}

BatchSystem::BatchSystem(const SystemConfig& config)
    : config_(config),
      cluster_(config.cluster),
      server_(sim_, cluster_, config.latency),
      moms_(sim_, server_, config.latency),
      recorder_(sim_, cluster_),
      scheduler_(server_, config.scheduler) {
  server_.set_moms(&moms_);
  server_.add_observer(&recorder_);
  if (config.streaming_metrics) recorder_.set_streaming(true);
  if (config.retire_finished_jobs) {
    // The grace period must outlast every latency-delayed closure that can
    // still look a completed job up by id (in-flight mom/server messages,
    // join chains, the coalesced scheduler wake-up). Sum the model's hops
    // with a generous multiplier plus a constant floor — retirement only
    // needs to be prompt relative to a trace's hours-long job lifetimes.
    const rms::LatencyModel& l = config.latency;
    const Duration grace = (l.client_to_server + l.server_to_mom +
                            l.mom_to_server + l.scheduler_delay) *
                               64 +
                           (l.join(cluster_.node_count()) +
                            l.dyn_join(cluster_.node_count())) *
                               4 +
                           Duration::seconds(1);
    server_.set_retirement(grace);
  }
  scheduler_.attach();
}

JobId BatchSystem::submit_now(rms::JobSpec spec,
                              std::unique_ptr<rms::Application> app) {
  return server_.submit(std::move(spec), std::move(app));
}

void BatchSystem::submit_at(
    Time at, rms::JobSpec spec,
    std::function<std::unique_ptr<rms::Application>()> app_factory) {
  DBS_REQUIRE(app_factory != nullptr, "application factory required");
  sim_.schedule_at(at + config_.latency.client_to_server,
                   [this, spec = std::move(spec),
                    factory = std::move(app_factory)]() mutable {
                     server_.submit(std::move(spec), factory());
                   });
}

void BatchSystem::deliver(wl::SubmitSpec&& s) {
  if (s.cancel.valid()) {
    (void)server_.cancel(s.cancel);  // false (unknown/finished) is fine
    return;
  }
  server_.submit(std::move(s.spec),
                 apps::make_application(s.behavior, config_.speedup));
}

void BatchSystem::submit_workload(const wl::Workload& workload) {
  for (const wl::SubmitSpec& s : workload.jobs)
    sim_.schedule_submission(s.at + config_.latency.client_to_server,
                             [this, s = s]() mutable { deliver(std::move(s)); });
}

void BatchSystem::submit_stream(wl::SubmissionSource& source,
                                std::size_t window) {
  DBS_REQUIRE(window > 0, "look-ahead window must be positive");
  DBS_REQUIRE(source_ == nullptr || source_ == &source ||
                  (source_dry_ && armed_ == 0),
              "another submission source is still streaming");
  source_ = &source;
  source_dry_ = false;
  window_ = window;
  fill_window();
}

// Arrivals are pulled in source order from a single chain (the initial
// fill, then each fired event refilling before it delivers), so their
// Submission-lane sequence numbers stay in source order and the ordering
// matches the materialized path exactly.
void BatchSystem::fill_window() {
  while (!source_dry_ && armed_ < window_) {
    if (armed_ == ring_.size()) {  // full: unwrap it, oldest first, grow
      std::rotate(ring_.begin(),
                  ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                  ring_.end());
      head_ = 0;
      // One allocation, made by the second slot: doubling would also touch
      // every smaller block. A slot is touched once it is used.
      if (!ring_.empty()) ring_.reserve(window_);
      ring_.emplace_back();
    }
    // A fresh slot: a source may set one field at a time (SwfSource does),
    // and a reused slot would keep whatever it does not set.
    wl::SubmitSpec& s = ring_[(head_ + armed_) % ring_.size()];
    s = wl::SubmitSpec{};
    if (!source_->next(s)) {
      source_dry_ = true;
      return;
    }
    DBS_REQUIRE(s.at >= last_armed_,
                "submission source must yield non-decreasing times");
    last_armed_ = s.at;
    ++armed_;
    sim_.schedule_submission(s.at + config_.latency.client_to_server,
                             [this] { fire_window(); });
  }
}

void BatchSystem::fire_window() {
  // The slot is refilled before the arrival is delivered, so move it out.
  wl::SubmitSpec s = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --armed_;
  fill_window();
  deliver(std::move(s));
}

void BatchSystem::run() {
  sim_.run();
  cluster_.check_invariants();
  // End of simulation: push buffered trace events to disk so a crash in
  // post-run analysis can't lose the tail of the trace. The tracer stays
  // open — the owner may run further simulations before close().
  if (tracer_ != nullptr) tracer_->flush();
}

void BatchSystem::run_until(Time until) {
  sim_.run_until(until);
  cluster_.check_invariants();
}

}  // namespace dbs::batch
