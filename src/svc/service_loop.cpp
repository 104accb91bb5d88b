#include "svc/service_loop.hpp"

#include <filesystem>
#include <thread>
#include <utility>

#include "batch/batch_system.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"

namespace dbs::svc {
namespace {

/// The recovery cursors read only the prefix the counting pass validated,
/// so one that runs out early read a file that changed since.
constexpr const char* kWalChanged = "WAL changed while recovery read it";

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

ServiceLoop::~ServiceLoop() {
  // A loop that never reached finalize() (its run threw, or a driver
  // stopped early) still waits for its writer before the WAL closes. A
  // destructor cannot rethrow the writer's error, so it logs it; the state
  // dir still holds every snapshot published before.
  if (writer_.joinable()) writer_.join();
  if (!writer_error_) return;
  try {
    std::rethrow_exception(writer_error_);
  } catch (const std::exception& e) {
    DBS_WARN("snapshot not published: " << e.what());
  } catch (...) {
    DBS_WARN("snapshot not published");
  }
}

bool ServiceLoop::open() {
  DBS_REQUIRE(durable_, "open() is only meaningful with a state_dir");
  DBS_REQUIRE(!opened_, "open() called twice");
  DBS_REQUIRE(ticks_ == 0, "open() must precede the first tick");
  opened_ = true;

  std::filesystem::create_directories(config_.state_dir);
  const std::string wal_file = wal_path(config_.state_dir);
  const WalSummary wal = scan_wal(wal_file);
  const bool had_state = wal.valid_bytes != 0;

  std::optional<SystemState> snap = load_best_snapshot(
      config_.state_dir, wal.ingest.records, wal.decisions);
  std::uint64_t done_ingest = 0;
  std::uint64_t done_decisions = 0;
  if (snap) {
    restore_state(system_, *snap);
    last_admitted_ = snap->last_admitted;
    done_ingest = snap->wal_ingest;
    done_decisions = snap->wal_decisions;
  }

  // Reopen the WAL for appending, cut to the last complete record (a
  // crash mid-append leaves a torn tail; everything before it is law).
  wal_ = std::make_unique<WalWriter>(wal_file,
                                     had_state ? wal.valid_bytes : 0);
  wal_ingest_ = wal.ingest;
  wal_decision_total_ = done_decisions;
  decisions_at_snapshot_ = done_decisions;
  handed_out_ = done_ingest;

  // Re-feed the unfired ingest tail at its RECORDED admission times: the
  // admission stamp is a pure function of the drained sequence (see the
  // header), so these are exactly the times the crashed process chose.
  // The tail enters the same window live records do, read as it refills.
  if (wal.ingest.records > done_ingest) {
    tail_ = std::make_unique<WalReader>(wal_file, wal.valid_bytes);
    DBS_REQUIRE(tail_->skip(kWalIngest, done_ingest), kWalChanged);
    tail_left_ = wal.ingest.records - done_ingest;
    system_.submit_stream(*this);
  }

  // Deterministic re-execution: run the tail forward and compare every
  // re-made decision record against the log before trusting the recovery.
  // Each horizon is the next logged decision's own timestamp — never a
  // tick-sized overshoot, which would run the clock past the admission
  // watermark and shift the stamps of everything admitted after recovery.
  if (wal.decisions > done_decisions) {
    logged_ = std::make_unique<WalReader>(wal_file, wal.valid_bytes);
    DBS_REQUIRE(logged_->skip(kWalDecision, done_decisions) &&
                    logged_->next(kWalDecision),
                kWalChanged);
    logged_left_ = wal.decisions - done_decisions;
  }
  while (logged_left_ > 0) {
    DBS_REQUIRE(!system_.simulator().idle(),
                "recovery ran dry before re-making every WAL decision");
    const std::uint64_t before = logged_left_;
    system_.run_until(Time::from_micros(logged_->decision().t_us));
    DBS_REQUIRE(logged_left_ < before,
                "recovery diverged: no decision re-made at a logged time");
  }
  logged_.reset();
  // What the re-run left of the tail is held like a drained backlog, so
  // last_admitted_ is the tail's last stamp before any new drain.
  while (tail_left_ > 0) {
    if (held_.empty() || held_.back().size() == kIngestChunk)
      held_.emplace_back();
    held_.back().push_back(std::move(read_tail()));
  }
  tail_.reset();

  recovered_ = had_state;
  return had_state;
}

std::size_t ServiceLoop::admit_pending() {
  // Let go of the chunks whose records all went to the window.
  held_.erase(held_.begin(),
              held_.begin() + static_cast<std::ptrdiff_t>(next_chunk_));
  next_chunk_ = 0;
  const std::size_t first = held_.size();
  const std::size_t n = ingest_.drain(held_);
  if (n == 0) return 0;

  const Time now = system_.simulator().now();
  for (std::size_t c = first; c < held_.size(); ++c) {
    for (IngestRecord& r : held_[c]) {
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
      wal_ingest_.add(r);
    }
  }
  if (wal_) {  // durable BEFORE any of them can fire
    wal_->flush();
    wal_->fsync();
  }
  system_.submit_stream(*this);

  obs::Registry& reg = registry();
  if (instruments_.admitted == nullptr) {
    instruments_.admitted = &reg.counter("svc.ingest.admitted");
    instruments_.depth = &reg.gauge("svc.ingest.depth");
  }
  instruments_.admitted->add(n);
  instruments_.depth->set(static_cast<double>(ingest_.depth()));
  return n;
}

bool ServiceLoop::next(wl::SubmitSpec& out) {
  const bool from_tail = tail_left_ > 0;
  if (!from_tail && next_chunk_ == held_.size()) return false;
  IngestRecord& r = from_tail ? read_tail() : held_[next_chunk_][next_pos_];
  out.at = r.admitted;
  out.spec = std::move(r.spec);
  out.behavior = r.behavior;
  out.cancel = r.kind == IngestKind::Cancel ? r.job : JobId{};
  ++handed_out_;
  if (!from_tail && ++next_pos_ == held_[next_chunk_].size()) {
    held_[next_chunk_++] = IngestChunk{};  // every record in it went out
    next_pos_ = 0;
  }
  return true;
}

IngestRecord& ServiceLoop::read_tail() {
  DBS_REQUIRE(tail_->next(kWalIngest), kWalChanged);
  --tail_left_;
  IngestRecord& r = tail_->ingest();
  last_admitted_ = max(last_admitted_, r.admitted);
  return r;
}

obs::Registry& ServiceLoop::registry() {
  // Svc counters land in the system's own registry (falling back to the
  // global one): concurrently ticking shard loops must never share one.
  obs::Registry& reg = system_.scheduler().sinks().registry_or_global();
  if (instruments_.registry != &reg) instruments_ = Instruments{&reg};
  return reg;
}

void ServiceLoop::on_decision(const rms::Decision& d) {
  const Time now = system_.simulator().now();
  const std::uint64_t iteration = system_.scheduler().iterations();
  if (logged_left_ > 0) {
    DBS_REQUIRE(
        obs::rec::decision_record(now, iteration, d) == logged_->decision(),
        "recovery divergence: a re-made decision differs from the WAL");
    ++wal_decision_total_;
    if (--logged_left_ > 0)
      DBS_REQUIRE(logged_->next(kWalDecision), kWalChanged);
    return;
  }
  wal_->append_decision(now, iteration, d);
  ++wal_decision_total_;
}

void ServiceLoop::tick() {
  DBS_REQUIRE(!durable_ || opened_,
              "durable service must open() before ticking");
  if (writer_done_.load(std::memory_order_acquire)) join_writer();
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
  finalize();
  return ticks_ - start_ticks;
}

SystemState ServiceLoop::capture_full() const {
  SystemState s = capture_state(system_);
  s.last_admitted = last_admitted_;
  s.wal_ingest = handed_out_ - system_.armed_submissions();
  s.wal_decisions = wal_decision_total_;
  return s;
}

void ServiceLoop::maybe_snapshot(bool force) {
  if (!durable_ || !wal_) return;
  const std::uint64_t since = wal_decision_total_ - decisions_at_snapshot_;
  if (!force && (config_.snapshot_every == 0 || since < config_.snapshot_every))
    return;
  join_writer();  // at most one snapshot in flight
  // Hand the buffered decision records to the kernel here; the writer
  // fsyncs them before it publishes the snapshot that counts them. A
  // snapshot must never claim WAL counts the file does not durably hold,
  // or recovery would (correctly, but wastefully) refuse to use it.
  wal_->flush();
  decisions_at_snapshot_ = wal_decision_total_;
  // The writer reads only the capture it owns, the WAL's descriptor and
  // the config, none of which this thread changes while it runs.
  writer_ = std::thread([this, state = capture_full()] {
    try {
      wal_->fsync();
      write_snapshot(config_.state_dir, state);
      prune_snapshots(config_.state_dir, config_.keep_snapshots);
    } catch (...) {
      writer_error_ = std::current_exception();
    }
    writer_done_.store(true, std::memory_order_release);
  });
}

void ServiceLoop::join_writer() {
  if (!writer_.joinable()) return;
  writer_.join();
  writer_done_.store(false, std::memory_order_relaxed);
  if (writer_error_)
    std::rethrow_exception(std::exchange(writer_error_, nullptr));
  ++snapshots_written_;
  obs::lazy_counter(registry(), instruments_.snapshots, "svc.snapshots")
      .add(1);
}

void ServiceLoop::finalize() {
  maybe_snapshot(true);
  join_writer();
}

}  // namespace dbs::svc
