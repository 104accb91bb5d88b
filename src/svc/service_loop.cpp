#include "svc/service_loop.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "common/assert.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"

namespace dbs::svc {
namespace {

[[nodiscard]] bool is_zero_latency(const rms::LatencyModel& m) {
  return m.client_to_server.is_zero() && m.server_to_mom.is_zero() &&
         m.mom_to_server.is_zero() && m.join_base.is_zero() &&
         m.join_per_node.is_zero() && m.dyn_join_base.is_zero() &&
         m.dyn_join_per_node.is_zero() && m.scheduler_delay.is_zero();
}

}  // namespace

ServiceLoop::ServiceLoop(batch::BatchSystem& system, IngestQueue& ingest,
                         ServiceConfig config)
    : system_(system), ingest_(ingest), config_(std::move(config)) {
  durable_ = !config_.state_dir.empty();
  if (durable_) {
    // Snapshots are taken at drain-cycle boundaries and assume quiescence:
    // every protocol cascade has fired, leaving only reconstructible
    // pending events. Only a zero-latency model guarantees that, and only
    // streaming metrics have a bounded, serializable state.
    DBS_REQUIRE(is_zero_latency(system_.config().latency),
                "durable service mode requires LatencyModel::zero()");
    DBS_REQUIRE(system_.config().streaming_metrics,
                "durable service mode requires streaming metrics");
    system_.scheduler().set_decision_sink(
        [this](const rms::Decision& d) { on_decision(d); });
  }
}

ServiceLoop::~ServiceLoop() = default;

bool ServiceLoop::open() {
  DBS_REQUIRE(durable_, "open() is only meaningful with a state_dir");
  DBS_REQUIRE(!opened_, "open() called twice");
  DBS_REQUIRE(ticks_ == 0, "open() must precede the first tick");
  opened_ = true;

  std::filesystem::create_directories(config_.state_dir);
  const std::string wal_file = wal_path(config_.state_dir);
  WalContents wal = read_wal(wal_file);
  const bool had_state = wal.valid_bytes != 0;

  std::optional<SystemState> snap =
      load_best_snapshot(config_.state_dir, wal.ingest.size(),
                         wal.decisions.size());
  std::uint64_t done_ingest = 0;
  std::uint64_t done_decisions = 0;
  if (snap) {
    restore_state(system_, *snap);
    last_admitted_ = snap->last_admitted;
    done_ingest = snap->wal_ingest;
    done_decisions = snap->wal_decisions;
    if (rng_ && snap->rng != std::array<std::uint64_t, 4>{})
      rng_->set_state(snap->rng);
  }

  // Reopen the WAL for appending, cut to the last complete record (a
  // crash mid-append leaves a torn tail; everything before it is law).
  wal_ = std::make_unique<WalWriter>(wal_file,
                                     had_state ? wal.valid_bytes : 0);
  wal_ingest_total_ = wal.ingest.size();
  for (const IngestRecord& r : wal.ingest) count_submit(r);
  wal_decision_total_ = done_decisions;
  decisions_at_snapshot_ = done_decisions;
  ingest_fired_total_ = done_ingest;

  // Re-feed the unfired ingest tail at its RECORDED admission times: the
  // admission stamp is a pure function of the drained sequence (see the
  // header), so these are exactly the times the crashed process chose.
  for (std::size_t i = done_ingest; i < wal.ingest.size(); ++i) {
    const IngestRecord& r = wal.ingest[i];
    schedule_record(r);
    pending_admits_.push_back(r.admitted);
    last_admitted_ = max(last_admitted_, r.admitted);
  }

  // Deterministic re-execution: run the tail forward and compare every
  // re-made decision record against the log before trusting the recovery.
  // Each horizon is the next logged decision's own timestamp — never a
  // tick-sized overshoot, which would run the clock past the admission
  // watermark and shift the stamps of everything admitted after recovery.
  expected_.assign(wal.decisions.begin() +
                       static_cast<std::ptrdiff_t>(done_decisions),
                   wal.decisions.end());
  expected_next_ = 0;
  while (expected_next_ < expected_.size()) {
    DBS_REQUIRE(!system_.simulator().idle(),
                "recovery ran dry before re-making every WAL decision");
    const std::size_t before = expected_next_;
    system_.run_until(Time::from_micros(expected_[expected_next_].t_us));
    DBS_REQUIRE(expected_next_ > before,
                "recovery diverged: no decision re-made at a logged time");
  }
  expected_.clear();
  expected_next_ = 0;

  recovered_ = had_state;
  return had_state;
}

std::size_t ServiceLoop::admit_pending() {
  drain_buf_.clear();
  const std::size_t n = ingest_.drain(drain_buf_);
  if (n == 0) return 0;

  const Time now = system_.simulator().now();
  for (auto& r : drain_buf_) {
    // Monotone admission: never before a previously admitted record and
    // always on an instant the simulator has not yet fired. The tick
    // pacing keeps now < last_admitted_ once anything was admitted, so
    // past bootstrap this reduces to max(requested, last_admitted_) — a
    // pure function of the drained sequence, reproducible from the WAL.
    const Time admitted =
        max(r.requested, max(now + Duration::micros(1), last_admitted_));
    r.admitted = admitted;
    last_admitted_ = admitted;
    if (wal_) wal_->append_ingest(r);
  }
  if (wal_) wal_->sync();  // durable BEFORE any of them can fire

  for (const auto& r : drain_buf_) {
    schedule_record(r);
    count_submit(r);
    if (durable_) pending_admits_.push_back(r.admitted);
  }
  wal_ingest_total_ += n;

  // Svc counters land in the system's own registry (falling back to the
  // global one): concurrently ticking shard loops must never share one.
  obs::Registry& reg = system_.scheduler().sinks().registry_or_global();
  reg.counter("svc.ingest.admitted").add(n);
  reg.gauge("svc.ingest.depth").set(static_cast<double>(ingest_.depth()));
  return n;
}

void ServiceLoop::schedule_record(const IngestRecord& r) {
  sim::Simulator& sim = system_.simulator();
  const Time fire_at =
      r.admitted + system_.config().latency.client_to_server;
  // Everything rides the Submission lane — the same lane the one-shot
  // workload drivers use — so live ingest, WAL replay and a
  // single-threaded re-run of the drained sequence produce identical
  // event orderings.
  if (r.kind == IngestKind::Submit) {
    sim.schedule_submission(
        fire_at, [this, spec = r.spec, behavior = r.behavior]() mutable {
          system_.server().submit(
              std::move(spec),
              apps::make_application(behavior, system_.config().speedup));
        });
  } else {
    sim.schedule_submission(fire_at, [this, job = r.job]() {
      system_.server().cancel(job);  // false (unknown/finished) is fine
    });
  }
}

void ServiceLoop::on_decision(const rms::Decision& d) {
  const Time now = system_.simulator().now();
  const std::uint64_t iteration = system_.scheduler().iterations();
  if (expected_next_ < expected_.size()) {
    DBS_REQUIRE(
        obs::rec::decision_record(now, iteration, d) ==
            expected_[expected_next_],
        "recovery divergence: a re-made decision differs from the WAL");
    ++expected_next_;
    ++wal_decision_total_;
    return;
  }
  wal_->append_decision(now, iteration, d);
  ++wal_decision_total_;
}

void ServiceLoop::tick() {
  DBS_REQUIRE(!durable_ || opened_,
              "durable service must open() before ticking");
  admit_pending();

  sim::Simulator& sim = system_.simulator();
  Time target = sim.now() + config_.tick;
  // Unclamped advance is only safe once no admission can ever happen
  // again: closed AND drained. Testing closed() alone races with a
  // producer that pushes records and then closes between our drain and
  // this check — the clock would run a tick ahead of queued records.
  if (!ingest_.closed() || ingest_.depth() != 0) {
    // Watermark pacing: while producers are live, virtual time stays
    // STRICTLY below the newest admission. The margin makes simulated
    // instants atomic — a later drain can never stamp a record onto an
    // instant whose events already fired (which would split one instant's
    // scheduler work across two iterations, an ordering the WAL cannot
    // reproduce on replay).
    target = min(target, last_admitted_ - Duration::micros(1));
    target = max(target, sim.now());
  }
  system_.run_until(target);
  ++ticks_;
  maybe_snapshot(false);
}

bool ServiceLoop::drained() const {
  return ingest_.closed() && ingest_.depth() == 0 &&
         system_.simulator().idle();
}

std::uint64_t ServiceLoop::run() {
  DBS_REQUIRE(!durable_ || opened_,
              "durable service must open() before run()");
  const std::uint64_t start_ticks = ticks_;
  while (!stop_.load(std::memory_order_acquire)) {
    tick();
    if (drained()) break;
    if (config_.max_ticks != 0 && ticks_ - start_ticks >= config_.max_ticks)
      break;
    if (config_.wall_sleep.count() > 0 && !ingest_.closed())
      std::this_thread::sleep_for(config_.wall_sleep);
  }
  maybe_snapshot(true);
  return ticks_ - start_ticks;
}

SystemState ServiceLoop::capture_full() const {
  SystemState s = capture_state(system_);
  s.last_admitted = last_admitted_;
  s.wal_ingest = ingest_fired_total_;
  s.wal_decisions = wal_decision_total_;
  if (rng_) s.rng = rng_->state();
  return s;
}

void ServiceLoop::maybe_snapshot(bool force) {
  if (!durable_ || !wal_) return;
  const std::uint64_t since = wal_decision_total_ - decisions_at_snapshot_;
  if (!force && (config_.snapshot_every == 0 || since < config_.snapshot_every))
    return;
  // Push buffered decision records out first: a snapshot must never claim
  // WAL counts the file does not yet durably hold, or recovery would
  // (correctly, but wastefully) refuse to use it.
  wal_->sync();
  // A WAL ingest record is part of the snapshot image only once its
  // submission event fired; the rest stay in the replayable tail.
  const Time now = system_.simulator().now();
  while (!pending_admits_.empty() && pending_admits_.front() <= now) {
    pending_admits_.pop_front();
    ++ingest_fired_total_;
  }
  write_snapshot(config_.state_dir, capture_full());
  decisions_at_snapshot_ = wal_decision_total_;
  ++snapshots_written_;
  system_.scheduler().sinks().registry_or_global().counter("svc.snapshots")
      .add(1);
  prune_snapshots(config_.state_dir, config_.keep_snapshots);
}

void ServiceLoop::finalize() { maybe_snapshot(true); }

void ServiceLoop::count_submit(const IngestRecord& r) {
  if (r.kind != IngestKind::Submit) return;
  ++wal_submit_total_;
  wal_submit_cores_ +=
      static_cast<std::uint64_t>(std::max<CoreCount>(r.spec.cores, 1));
}

}  // namespace dbs::svc
