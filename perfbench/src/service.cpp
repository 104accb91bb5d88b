// service_durable: the dbsd configuration (zero latency, streaming metrics,
// retirement, WAL + snapshots in a fresh state dir), driven two ways.
//
// Closed loop (--trace 0, the end-to-end metrics): the pre-generated trace
// is parsed and pushed into IngestQueue::submit without pacing, the queue is
// closed, and this thread calls ServiceLoop::tick() until drained(). Every
// record then takes the whole ingest path (drain, WAL append + fsync,
// scheduling, decision records, snapshot encode) as fast as the service
// can go. Afterwards the state dir is reopened with its snapshots set
// aside, timing a full-WAL open().
//
// Open loop (--trace 1, the per-layer metrics): one producer thread pushes
// the trace at a fixed rate while this thread ticks as soon as a record is
// queued, which gives the ack latency and the generator's lag.
//
// Both open-loop threads wait by spinning, not sleeping: a 100 µs sleep
// (dbsd's wall_sleep) wakes up 60-600 µs late on a loaded host, which put
// 2-3x swings into the ack latency between repetitions of the same input.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <thread>

#include "batch/batch_system.hpp"
#include "spans.hpp"
#include "svc/ingest.hpp"
#include "svc/service_loop.hpp"
#include "svc/state_store.hpp"
#include "workload/swf/swf_source.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace dbs;
namespace fs = std::filesystem;

/// Open-loop send rate, fixed so every commit is offered the same load:
/// about a quarter of the ~40k records/s this configuration sustains
/// closed-loop on the 4-core reference host. Each tick pays a fixed cost
/// (drain, WAL append + fsync) plus a cost per record, so the tick period
/// grows as 1/(1 - rate x per-record cost); at half the closed-loop rate a
/// slow phase of the host pushes the loop near saturation and ack latency
/// swings threefold within one run.
constexpr double kRecordsPerSecond = 10000.0;
/// Cold open()s timed next to every open-loop repetition.
constexpr int kColdOpenSamples = 4;
/// dbsd's defaults: snapshot every 256 decisions, 1 h of virtual time per
/// drain cycle.
constexpr std::uint64_t kSnapshotEvery = 256;
constexpr auto kTick = Duration::millis(3'600'000);

batch::SystemConfig system_config(bool stage_timing) {
  batch::SystemConfig config;
  config.cluster.cores_per_node = 8;
  config.cluster.node_count = 128;
  config.latency = rms::LatencyModel::zero();
  config.streaming_metrics = true;
  config.retire_finished_jobs = true;
  config.scheduler.stage_timing = stage_timing;
  return config;
}

svc::ServiceConfig service_config(const std::string& state_dir) {
  svc::ServiceConfig config;
  config.state_dir = state_dir;
  config.snapshot_every = kSnapshotEvery;
  config.tick = kTick;
  return config;
}

/// Newest snapshot file in `dir` (by decision count in its name), or "".
fs::path newest_snapshot(const fs::path& dir) {
  fs::path best;
  std::uint64_t best_n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("snapshot-") || !name.ends_with(".dbss")) continue;
    const std::uint64_t n = std::stoull(name.substr(9, name.size() - 14));
    if (best.empty() || n >= best_n) {
      best = entry.path();
      best_n = n;
    }
  }
  return best;
}

struct Rep {
  double live_wall_s = 0.0;
  double push_s = 0.0;  ///< closed loop: parsing and pushing every record
  double peak_rss_mb = 0.0;
  double recover_s = 0.0;
  std::uint64_t pushed = 0;
  std::uint64_t durable = 0;
  std::uint64_t completed = 0;
  std::uint64_t decisions = 0;
  std::string digest;
  LifecycleObserver counts;
  std::vector<double> ack_ms;
  std::vector<double> lag_ms;
  std::uint64_t ticks = 0;
  std::size_t depth_max = 0;
  std::size_t pending_max = 0;
  std::uint64_t events = 0;
  std::uint64_t iterations = 0;
  std::uint64_t next_calls = 0;
  std::vector<double> iteration_us;  ///< the scheduler's retained history
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t recover_replayed = 0;
  std::string error;  ///< live run, producer or recovery failure
};

/// A fresh state dir, a system wired to `ingest` on it, and the trace's
/// source, opened cold: what both live runs start from.
struct Live {
  MemoryBuf buf;
  std::istream in;
  wl::swf::SwfSource source;
  batch::BatchSystem system;
  svc::ServiceLoop* service = nullptr;

  Live(const std::string& trace, const std::string& state_dir, bool stage_timing,
       svc::IngestQueue& ingest, obs::Registry& registry, SpanLog* spans,
       LifecycleObserver& counts)
      : buf(trace),
        in(&buf),
        source(in, wl::swf::SwfSourceConfig{}),
        system(system_config(stage_timing)) {
    fs::remove_all(state_dir);
    (void)source.header();
    system.set_sinks(obs::Sinks(nullptr, &registry));
    service = &system.attach_ingest(ingest, service_config(state_dir));
    system.server().add_observer(&counts);
    source.set_max_cores(system.cluster().total_cores());
    const ScopedSpan span(spans, Kind::Open);
    if (system.open_state()) throw std::runtime_error("state dir not fresh");
  }

  /// What the finished live run leaves for the checks and the metrics.
  void collect(Rep& rep, bool keep_history) {
    rep.durable = service->wal_ingest_total();
    rep.decisions = service->wal_decision_total();
    rep.snapshots = service->snapshots_written();
    system.server().remove_observer(&rep.counts);
    const metrics::WorkloadSummary summary = metrics::summarize(system.recorder());
    rep.completed = summary.jobs_completed;
    rep.digest = summary_digest(summary);
    rep.events = system.simulator().events_fired();
    rep.iterations = system.scheduler().iterations();
    if (keep_history) {
      const core::IterationHistory& h = system.scheduler().history();
      for (std::size_t i = 0; i < h.size(); ++i) rep.iteration_us.push_back(h[i].wall_us);
    }
  }
};

/// The closed-loop live run: push every record, close, tick until drained.
/// live_wall_s runs from the first push to the end of finalize().
Rep closed_loop_once(const std::string& trace, const std::string& state_dir) {
  Rep rep;
  try {
    obs::Registry registry;
    svc::IngestQueue ingest;
    Live live(trace, state_dir, false, ingest, registry, nullptr, rep.counts);
    const std::uint64_t begin = now_ns();
    wl::SubmitSpec s;
    while (live.source.next(s)) {
      ingest.submit(s.at, std::move(s.spec), s.behavior);
      ++rep.pushed;
    }
    ingest.close();
    rep.push_s = ns_to_s(now_ns() - begin);
    do {
      live.service->tick();
    } while (!live.service->drained());
    live.service->finalize();
    rep.live_wall_s = ns_to_s(now_ns() - begin);
    live.collect(rep, false);
  } catch (const std::exception& e) {
    rep.error = std::string("live run: ") + e.what();
  }
  return rep;
}

/// The open-loop producer: pushes record i at base + i/rate, never
/// earlier, and records how late each push started. Waits by spinning.
void produce(wl::SubmissionSource& source, svc::IngestQueue& ingest,
             std::uint64_t base_ns, SpanLog* spans, Rep& rep,
             std::string& error) {
  try {
    const double period_ns = 1e9 / kRecordsPerSecond;
    wl::SubmitSpec s;
    for (std::uint64_t i = 0;; ++i) {
      const std::uint64_t due =
          base_ns + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
      while (now_ns() < due) {
      }
      if (!source.next(s)) break;
      const std::uint64_t t = now_ns();
      rep.lag_ms.push_back(static_cast<double>(t - due) / 1e6);
      std::uint64_t ticket = 0;
      {
        ScopedSpan span(spans, Kind::Push);
        ticket = ingest.submit(s.at, std::move(s.spec), s.behavior);
        span.set_ids(static_cast<std::uint32_t>(ticket));
      }
      if (ticket != i) throw std::runtime_error("ingest ticket out of order");
      ++rep.pushed;
    }
  } catch (const std::exception& e) {
    error = std::string("producer: ") + e.what();
  }
  ingest.close();
}

/// The open-loop live run. `main_spans` and `producer_spans` are both null
/// (untraced) or both set (traced).
Rep open_loop_once(const std::string& trace, const std::string& state_dir,
                   SpanLog* main_spans, SpanLog* producer_spans,
                   obs::Registry& registry) {
  Rep rep;
  rep.ack_ms.reserve(kServiceJobs);
  rep.lag_ms.reserve(kServiceJobs);
  const double period_ns = 1e9 / kRecordsPerSecond;
  std::string producer_error;
  try {
    svc::IngestQueue ingest;
    Live live(trace, state_dir, main_spans != nullptr, ingest, registry,
              main_spans, rep.counts);
    svc::ServiceLoop& service = *live.service;
    TimedSource timed(live.source, producer_spans);

    const std::uint64_t base = now_ns();
    std::thread producer([&] {
      produce(timed, ingest, base, producer_spans, rep, producer_error);
    });
    try {
      std::uint64_t acked = 0;
      for (;;) {
        rep.depth_max = std::max(rep.depth_max, ingest.depth());
        std::uint64_t t = 0;
        std::uint64_t durable = 0;
        {
          ScopedSpan span(main_spans, Kind::Tick);
          service.tick();
          t = now_ns();
          durable = service.wal_ingest_total();
          span.set_ids(static_cast<std::uint32_t>(acked),
                       static_cast<std::uint32_t>(durable));
        }
        for (; acked < durable; ++acked) {
          const auto due = base + static_cast<std::uint64_t>(
                                      static_cast<double>(acked) * period_ns);
          rep.ack_ms.push_back(static_cast<double>(t - std::min(t, due)) / 1e6);
        }
        ++rep.ticks;
        rep.pending_max =
            std::max(rep.pending_max, live.system.simulator().pending_events());
        if (service.drained()) break;
        // While the ingest is open, the clock cannot pass the newest
        // admission, so a tick has nothing to do until a record is queued.
        if (ingest.depth() == 0 && !ingest.closed()) {
          const ScopedSpan idle(main_spans, Kind::Idle);
          while (ingest.depth() == 0 && !ingest.closed()) {
          }
        }
      }
      service.finalize();
    } catch (...) {
      ingest.close();
      producer.join();
      throw;
    }
    producer.join();
    rep.live_wall_s = ns_to_s(now_ns() - base);
    rep.next_calls = timed.calls();
    live.collect(rep, main_spans != nullptr);
  } catch (const std::exception& e) {
    rep.error = std::string("live run: ") + e.what();
  }
  if (!producer_error.empty()) rep.error = producer_error;
  return rep;
}

/// A full-WAL recovery of a finished live run's state dir: every snapshot
/// is set aside so open() re-executes the whole log and byte-verifies every
/// decision (read-only: the WAL is intact, so open() truncates nothing).
/// Removes the state dir afterwards.
void recover(const std::string& state_dir, SpanLog* spans, Rep& rep) {
  try {
    const fs::path dir(state_dir);
    rep.wal_bytes = fs::file_size(svc::wal_path(state_dir));
    const fs::path newest = newest_snapshot(dir);
    if (!newest.empty()) rep.snapshot_bytes = fs::file_size(newest);
    const fs::path aside = dir / "set_aside";
    fs::create_directories(aside);
    for (const auto& entry : fs::directory_iterator(dir))
      if (entry.path().extension() == ".dbss")
        fs::rename(entry.path(), aside / entry.path().filename());

    obs::Registry recover_registry;
    batch::BatchSystem system(system_config(false));
    system.set_sinks(obs::Sinks(nullptr, &recover_registry));
    svc::IngestQueue ingest;
    svc::ServiceLoop& service =
        system.attach_ingest(ingest, service_config(state_dir));
    bool recovered = false;
    {
      const ScopedSpan span(spans, Kind::Recover);
      const std::uint64_t begin = now_ns();
      recovered = system.open_state();
      rep.recover_s = ns_to_s(now_ns() - begin);
    }
    rep.recover_replayed =
        service.wal_ingest_total() + service.wal_decision_total();
    if (!recovered || service.wal_ingest_total() != rep.durable ||
        service.wal_decision_total() != rep.decisions)
      rep.error = "recovery: reopened WAL does not match the live run";
  } catch (const std::exception& e) {
    rep.error = std::string("recovery: ") + e.what();
  }
  fs::remove_all(state_dir);
}

/// setup_s samples: constructing a durable system and attaching its
/// service loop, as every service run does before it opens the state dir.
/// The cold open() itself is disk-bound and is reported per-layer
/// (svc.cold_open_ms).
std::vector<double> measure_setup(const std::string& state_dir, int samples) {
  std::vector<double> out;
  for (int i = 0; i < samples; ++i) {
    obs::Registry registry;
    const std::uint64_t begin = now_ns();
    batch::BatchSystem system(system_config(false));
    system.set_sinks(obs::Sinks(nullptr, &registry));
    svc::IngestQueue ingest;
    system.attach_ingest(ingest, service_config(state_dir));
    out.push_back(ns_to_s(now_ns() - begin));
  }
  return out;
}

/// svc.cold_open_ms samples: open() on a fresh state dir.
std::vector<double> measure_cold_open(const std::string& state_dir, int samples) {
  std::vector<double> out;
  for (int i = 0; i < samples; ++i) {
    fs::remove_all(state_dir);
    obs::Registry registry;
    batch::BatchSystem system(system_config(false));
    system.set_sinks(obs::Sinks(nullptr, &registry));
    svc::IngestQueue ingest;
    system.attach_ingest(ingest, service_config(state_dir));
    const std::uint64_t begin = now_ns();
    if (system.open_state()) throw std::runtime_error("state dir not fresh");
    out.push_back(static_cast<double>(now_ns() - begin) / 1e6);
  }
  fs::remove_all(state_dir);
  return out;
}

std::string check(const Rep& rep, const std::string& first_digest) {
  if (!rep.error.empty()) return rep.error;
  if (rep.pushed != kServiceJobs) return "producer pushed a short trace";
  if (rep.durable != rep.pushed) return "a pushed record never became durable";
  if (rep.completed != rep.pushed) return "completed != pushed";
  if (rep.counts.starts != rep.counts.submits) return "starts != submits";
  if (rep.counts.dyn_grants + rep.counts.dyn_rejects != rep.counts.dyn_requests)
    return "dyn_grants + dyn_rejects != dyn_requests";
  if (!first_digest.empty() && rep.digest != first_digest)
    return "summary digest differs from the first run of this seed";
  return "";
}

}  // namespace

Result run_service(const Options& opt) {
  const std::string trace = generate_trace(opt, kServiceJobs, 24);
  const std::string state_dir =
      opt.work_dir + "/state_" + opt.workload + "_" + std::to_string(opt.seed);

  Result r;
  (void)measure_setup(state_dir, 1);  // pays the once-per-process timer calibration
  std::string first_digest;
  std::size_t runs = 0;
  const auto account = [&](const Rep& rep, const std::string& what) {
    const std::string failure = check(rep, first_digest);
    r.attempted += kServiceJobs;
    if (!failure.empty()) {
      // Every record of a failed run counts, pushed or not.
      r.failed += kServiceJobs;
      r.notes.push_back("FAILED " + what + ": " + failure);
    }
    if (first_digest.empty()) first_digest = rep.digest;
  };
  const std::uint64_t window_end =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);

  if (!opt.trace) {
    HostSpeed host;
    Timings setups;
    Timings walls;
    Timings pushes;
    Timings recover_s;
    std::vector<double> rss;
    double kernel = host.measure();
    do {
      // Set-up samples are taken next to every run, so they see the same
      // host phases and the same scale as the run. The live run and its
      // recovery each get the scale measured around them.
      const std::vector<double> setup = measure_setup(state_dir, kSetupSamples);
      const double rss_base = reset_peak_rss();
      Rep rep = closed_loop_once(trace, state_dir);
      const double mid_kernel = host.measure();
      if (rep.error.empty()) recover(state_dir, nullptr, rep);
      rep.peak_rss_mb = peak_rss_mb() - rss_base;
      const double next_kernel = host.measure();
      const double live_scale = HostSpeed::scale(kernel, mid_kernel);
      const double recover_scale = HostSpeed::scale(mid_kernel, next_kernel);
      kernel = next_kernel;
      account(rep, "service run " + std::to_string(runs++));
      walls.add(rep.live_wall_s, live_scale);
      pushes.add(rep.push_s, live_scale);
      recover_s.add(rep.recover_s, recover_scale);
      for (const double seconds : setup) setups.add(seconds, live_scale);
      rss.push_back(rep.peak_rss_mb);
    } while (now_ns() < window_end);

    r.notes.push_back(timings_note(
        "closed-loop service runs " + std::to_string(runs) + " x " +
            std::to_string(kServiceJobs) + " records, summary digest " +
            first_digest,
        "live wall", walls));
    r.notes.push_back(timings_note("", "of which push phase", pushes));
    r.notes.push_back(timings_note("", "recovery open()", recover_s));
    const auto jobs = static_cast<double>(kServiceJobs);
    r.add("jobs_per_s", jobs / median(walls.scaled), "jobs/s");
    r.add("recover_s", median(recover_s.scaled), "s");
    r.add("peak_rss_mb", median(rss), "MiB");
    r.add("setup_s", median(setups.scaled), "s");
    return r;
  }

  // Per-layer: untraced open-loop repetitions for the ack and cold-open
  // figures, then one traced open-loop run with its recovery.
  std::vector<double> ack_p50;
  std::vector<double> ack_p99;
  std::vector<double> walls;
  std::vector<double> cold_open_ms;
  std::vector<double> scales;
  std::size_t ack_samples = 0;
  HostSpeed host;
  double kernel = host.measure();
  do {
    const std::vector<double> cold = measure_cold_open(state_dir, kColdOpenSamples);
    cold_open_ms.insert(cold_open_ms.end(), cold.begin(), cold.end());
    obs::Registry registry;
    const Rep rep = open_loop_once(trace, state_dir, nullptr, nullptr, registry);
    fs::remove_all(state_dir);
    const double next_kernel = host.measure();
    scales.push_back(HostSpeed::scale(kernel, next_kernel));
    kernel = next_kernel;
    account(rep, "open-loop service run " + std::to_string(runs++));
    ack_p50.push_back(quantile(rep.ack_ms, 0.50));
    ack_p99.push_back(quantile(rep.ack_ms, 0.99));
    ack_samples += rep.ack_ms.size();
    walls.push_back(rep.live_wall_s);
  } while (now_ns() < window_end);

  char line[256];
  std::snprintf(line, sizeof(line),
                "open-loop service runs %zu x %llu records at %.0f/s, summary "
                "digest %s, %zu ack samples",
                runs, static_cast<unsigned long long>(kServiceJobs),
                kRecordsPerSecond, first_digest.c_str(), ack_samples);
  r.notes.push_back(line);

  SpanLog main_spans(1);
  SpanLog producer_spans(2);
  producer_spans.reserve(2 * kServiceJobs + 16);
  obs::Registry registry;
  const std::uint64_t traced_begin = now_ns();
  Rep rep = open_loop_once(trace, state_dir, &main_spans, &producer_spans, registry);
  if (rep.error.empty()) recover(state_dir, &main_spans, rep);
  account(rep, "traced service run");

  const KindTotals t = main_spans.totals();
  const KindTotals p = producer_spans.totals();
  const auto sec = [](const std::array<std::uint64_t, kKinds>& a, Kind k) {
    return ns_to_s(a[static_cast<std::size_t>(k)]);
  };
  const double wall = rep.live_wall_s;
  // Outside-in, a tick splits no further than this: the scheduler times its
  // own iterations (iteration_us, stage timers); the rest of a tick is the
  // drain, WAL append + fsync, event dispatch, rms handlers and snapshots.
  const double core_s =
      histogram_sum(registry, "scheduler.iteration_us").value_or(0.0) / 1e6;
  const double stages_s = stage_seconds(registry);
  const double tick_s = sec(t.total_ns, Kind::Tick);
  const double svc_sim_rms_s = tick_s - core_s;
  const double idle_s = sec(t.total_ns, Kind::Idle);
  add_layer_table(r, opt.workload + " (service thread, live phase)", wall,
                  static_cast<double>(rep.completed),
                  {{"svc+sim_rms (tick net of core)", svc_sim_rms_s},
                   {"core: pipeline stages", stages_s},
                   {"core: rest of iteration_us", core_s - stages_s},
                   {"idle (spin until a record is queued)", idle_s}},
                  "benchmark loop", wall - tick_s - idle_s);
  add_layer_table(r, opt.workload + " (producer thread)", wall,
                  static_cast<double>(rep.pushed),
                  {{"workload (next)", sec(p.self_ns, Kind::Next)},
                   {"svc (IngestQueue::submit)", sec(p.self_ns, Kind::Push)}},
                  "open-loop wait", wall - ns_to_s(producer_spans.top_level_ns()));
  r.notes.push_back("cold open " + std::to_string(sec(t.total_ns, Kind::Open)) +
                    " s, full-WAL recovery open " +
                    std::to_string(sec(t.total_ns, Kind::Recover)) + " s");

  LayerSample sample;
  sample.counts = &rep.counts;
  sample.jobs = rep.completed;
  sample.next_calls = rep.next_calls;
  sample.workload_s = sec(p.self_ns, Kind::Next);
  sample.events = rep.events;
  sample.pending_max = rep.pending_max;
  sample.sim_rms_s = svc_sim_rms_s;
  sample.iterations = rep.iterations;
  sample.core_busy_s = core_s;
  sample.iteration_us = rep.iteration_us;
  sample.registry = &registry;
  add_layer_metrics(r, sample);

  SvcSample svc;
  svc.ticks = rep.ticks;
  svc.tick_p99_us = quantile(main_spans.durations_us(Kind::Tick), 0.99);
  svc.tick_busy_s = tick_s;
  svc.records_per_tick =
      static_cast<double>(rep.durable) / static_cast<double>(std::max<std::uint64_t>(rep.ticks, 1));
  svc.push_p99_us = quantile(producer_spans.durations_us(Kind::Push), 0.99);
  svc.ingest_depth_max = rep.depth_max;
  svc.gen_lag_p99_ms = quantile(rep.lag_ms, 0.99);
  svc.snapshots = rep.snapshots;
  svc.snapshot_bytes = rep.snapshot_bytes;
  svc.wal_bytes_per_job =
      static_cast<double>(rep.wal_bytes) / static_cast<double>(std::max<std::uint64_t>(rep.pushed, 1));
  svc.recover_replayed = rep.recover_replayed;
  svc.cold_open_ms = median(cold_open_ms);
  svc.ack_p50_ms = median(ack_p50);
  svc.ack_p99_ms = median(ack_p99);
  add_svc_metrics(r, svc);
  r.add("trace.overhead_ratio", wall / median(walls), "ratio");
  r.add("host.scale", median(scales), "ratio");
  r.add("trace.attributed_frac", (svc_sim_rms_s + core_s) / wall, "fraction");

  const std::string path = opt.work_dir + "/trace_" + opt.workload + ".json";
  std::ofstream out(path);
  write_chrome_trace(out, {&main_spans, &producer_spans}, traced_begin,
                     kMaxTraceEvents);
  r.notes.push_back(out ? "chrome trace written to " + path
                        : "WARNING: cannot write " + path);
  return r;
}

}  // namespace pb
