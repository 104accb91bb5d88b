// replay_shallow and replay_deep_dyn: a synthetic SWF trace, generated into
// memory before any timing, streamed through BatchSystem::submit_stream and
// run to completion, repeatedly for the run's measurement window.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>

#include "batch/batch_system.hpp"
#include "batch/esp_experiment.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace pb {
namespace {

using namespace dbs;

struct Shape {
  std::uint64_t jobs = 0;
  std::uint64_t mean_interarrival_s = 24;
  double overlay_dynamic_fraction = 0.0;
  bool dyn500 = false;
};

Shape shape_of(const std::string& workload) {
  Shape s;
  s.jobs = kReplayJobs;
  if (workload == "replay_deep_dyn") {
    // ~91% offered load before the overlay's grants. At 20 s (~95%) the
    // queue's excursions make the work per job depend on the seed several
    // times over (see perfbench/README.md), which no median can steady.
    s.mean_interarrival_s = 21;
    s.overlay_dynamic_fraction = 0.3;
    s.dyn500 = true;
  }
  return s;
}

batch::SystemConfig system_config(const Shape& shape, bool stage_timing) {
  batch::SystemConfig config;
  config.cluster.cores_per_node = 8;
  config.cluster.node_count = 128;  // the generator's 1024-core MaxProcs
  config.retire_finished_jobs = true;
  config.streaming_metrics = true;
  if (shape.dyn500)
    config.scheduler = batch::esp_scheduler_config(batch::EspExperimentParams{},
                                                   batch::EspConfig::Dyn500);
  config.scheduler.stage_timing = stage_timing;
  return config;
}

/// What one replay produced.
struct Rep {
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t yielded = 0;
  std::uint64_t completed = 0;
  std::string digest;
  LifecycleObserver counts;
  std::uint64_t events = 0;
  std::uint64_t iterations = 0;
  std::uint64_t next_calls = 0;
  std::size_t pending_max = 0;
  std::string error;  ///< non-empty when the replay threw
};

/// One replay. With `spans` it drives Simulator::step() and records a span
/// per step (and per next() through the decorator); without, it calls run().
Rep replay_once(const std::string& trace, const Shape& shape, std::uint64_t seed,
                SpanLog* spans, obs::Registry& registry) {
  Rep rep;
  MemoryBuf buf(trace);
  std::istream in(&buf);
  wl::swf::SwfSourceConfig src_config;
  src_config.overlay_dynamic_fraction = shape.overlay_dynamic_fraction;
  src_config.overlay_seed = seed;
  wl::swf::SwfSource source(in, src_config);
  (void)source.header();

  TimedSource timed(source, spans);

  const double rss_base = reset_peak_rss();
  try {
    batch::BatchSystem system(system_config(shape, spans != nullptr));
    system.set_sinks(obs::Sinks(nullptr, &registry));
    system.server().add_observer(&rep.counts);
    source.set_max_cores(system.cluster().total_cores());
    const std::uint64_t begin = now_ns();

    if (spans == nullptr) {
      system.submit_stream(timed, /*window=*/1024);
      system.run();
    } else {
      {
        const ScopedSpan fill(spans, Kind::SubmitStream);
        system.submit_stream(timed, /*window=*/1024);
      }
      sim::Simulator& sim = system.simulator();
      std::uint64_t iterations = system.scheduler().iterations();
      for (;;) {
        const std::uint32_t step = spans->open(Kind::Step);
        if (!sim.step()) {
          spans->discard(step);
          break;
        }
        if (system.scheduler().iterations() != iterations) {
          iterations = system.scheduler().iterations();
          spans->at(step).kind = Kind::Iterate;
        }
        spans->close(step);
        rep.pending_max = std::max(rep.pending_max, sim.pending_events());
      }
      system.cluster().check_invariants();  // what run() does after draining
    }
    rep.wall_s = ns_to_s(now_ns() - begin);

    system.server().remove_observer(&rep.counts);
    const metrics::WorkloadSummary summary = metrics::summarize(system.recorder());
    rep.completed = summary.jobs_completed;
    rep.digest = summary_digest(summary);
    rep.events = system.simulator().events_fired();
    rep.iterations = system.scheduler().iterations();
    rep.peak_rss_mb = peak_rss_mb() - rss_base;
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  rep.yielded = source.yielded();
  rep.next_calls = timed.calls();
  return rep;
}

/// setup_s samples: constructing and wiring a system, as every replay does
/// before submit_stream.
std::vector<double> measure_setup(const Shape& shape, int samples) {
  std::vector<double> out;
  for (int i = 0; i < samples; ++i) {
    obs::Registry registry;
    LifecycleObserver counts;
    const std::uint64_t begin = now_ns();
    batch::BatchSystem system(system_config(shape, false));
    system.set_sinks(obs::Sinks(nullptr, &registry));
    system.server().add_observer(&counts);
    const std::uint64_t end = now_ns();
    system.server().remove_observer(&counts);
    out.push_back(ns_to_s(end - begin));
  }
  return out;
}

/// The outside-in checks; returns the first one that fails, or "".
std::string check(const Rep& rep, const std::string& first_digest) {
  if (!rep.error.empty()) return "threw: " + rep.error;
  if (rep.completed != rep.yielded) return "completed != yielded";
  if (rep.counts.starts != rep.counts.submits) return "starts != submits";
  if (rep.counts.dyn_grants + rep.counts.dyn_rejects != rep.counts.dyn_requests)
    return "dyn_grants + dyn_rejects != dyn_requests";
  if (!first_digest.empty() && rep.digest != first_digest)
    return "summary digest differs from the first run of this seed";
  return "";
}

}  // namespace

std::string generate_trace(const Options& opt, std::uint64_t jobs,
                           std::uint64_t mean_interarrival_s) {
  wl::swf::SwfGenParams gen;
  gen.jobs = jobs;
  gen.seed = opt.seed;
  gen.mean_interarrival_s = mean_interarrival_s;
  std::ostringstream os;
  wl::swf::generate_swf(os, gen);
  return std::move(os).str();
}

Result run_replay(const Options& opt) {
  const Shape shape = shape_of(opt.workload);
  const std::string trace =
      generate_trace(opt, shape.jobs, shape.mean_interarrival_s);

  Result r;
  HostSpeed host;
  (void)measure_setup(shape, 1);  // pays the once-per-process timer calibration
  Timings setups;
  Timings walls;
  std::vector<double> rss;
  std::string first_digest;
  Rep first;

  // Untraced repetitions fill the measurement window (at least one), each
  // between two runs of the host-speed kernel.
  const std::uint64_t window_end =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  double kernel = host.measure();
  do {
    // Set-up samples are taken next to every repetition, so they see the
    // same host phases and the same scale as the replays.
    const std::vector<double> setup = measure_setup(shape, kSetupSamples);
    obs::Registry registry;
    Rep rep = replay_once(trace, shape, opt.seed, nullptr, registry);
    const double next_kernel = host.measure();
    const double scale = HostSpeed::scale(kernel, next_kernel);
    kernel = next_kernel;
    for (const double seconds : setup) setups.add(seconds, scale);
    const std::string failure = check(rep, first_digest);
    r.attempted += rep.yielded;
    if (!failure.empty()) {
      r.failed += rep.yielded;
      r.notes.push_back("FAILED replay " + std::to_string(walls.raw.size()) +
                        ": " + failure);
    }
    if (first_digest.empty()) {
      first_digest = rep.digest;
      first = rep;
    }
    walls.add(rep.wall_s, scale);
    rss.push_back(rep.peak_rss_mb);
  } while (now_ns() < window_end);

  const auto jobs_per_rep = static_cast<double>(shape.jobs);
  r.notes.push_back(timings_note(
      "replays " + std::to_string(walls.raw.size()) + " x " +
          std::to_string(shape.jobs) + " jobs, summary digest " + first_digest,
      "wall", walls));

  if (!opt.trace) {
    r.add("jobs_per_s", jobs_per_rep / median(walls.scaled), "jobs/s");
    // Replays have no WAL: recovering their end state is re-executing the
    // trace, which every repetition after the first does and verifies.
    r.add("recover_s",
          median(walls.scaled.size() > 1
                     ? std::vector<double>(walls.scaled.begin() + 1,
                                           walls.scaled.end())
                     : walls.scaled),
          "s");
    r.add("peak_rss_mb", median(rss), "MiB");
    r.add("setup_s", median(setups.scaled), "s");
    return r;
  }

  // The traced replay: same trace, same event order, spans on.
  SpanLog spans(1);
  spans.reserve(first.events + first.next_calls + 16);
  obs::Registry registry;
  const std::uint64_t traced_begin = now_ns();
  const Rep rep = replay_once(trace, shape, opt.seed, &spans, registry);
  const double traced_wall = rep.wall_s;
  std::string failure = check(rep, first_digest);
  if (failure.empty() &&
      (rep.events != first.events || rep.iterations != first.iterations))
    failure = "event or iteration count differs from the untraced replays";
  r.attempted += rep.yielded;
  if (!failure.empty()) {
    r.failed += rep.yielded;
    r.notes.push_back("FAILED traced replay: " + failure);
  }

  const KindTotals t = spans.totals();
  const auto self_s = [&](Kind k) {
    return ns_to_s(t.self_ns[static_cast<std::size_t>(k)]);
  };
  const double jobs = static_cast<double>(rep.completed);
  const double workload_s = self_s(Kind::Next);
  const double sim_rms_s = self_s(Kind::Step) + self_s(Kind::SubmitStream);
  const double core_s = self_s(Kind::Iterate);
  const double residual_s = traced_wall - ns_to_s(spans.top_level_ns());
  // The stage timers split the iterating steps into the pipeline proper and
  // the rest of iterate(): cache-base advance, the iteration gauges and the
  // poll re-arm (JobQueue scans and EventQueue pushes made from core).
  const double stages_s = stage_seconds(registry);
  add_layer_table(r, opt.workload, traced_wall, jobs,
                  {{"workload (next)", workload_s},
                   {"sim_rms (other steps, self)", sim_rms_s},
                   {"core: pipeline stages", stages_s},
                   {"core: iterate() outside stages", core_s - stages_s}},
                  "benchmark loop", residual_s);

  LayerSample sample;
  sample.counts = &rep.counts;
  sample.jobs = rep.completed;
  sample.next_calls = rep.next_calls;
  sample.workload_s = workload_s;
  sample.events = rep.events;
  sample.pending_max = rep.pending_max;
  sample.sim_rms_s = sim_rms_s;
  sample.iterations = rep.iterations;
  sample.core_busy_s = ns_to_s(t.total_ns[static_cast<std::size_t>(Kind::Iterate)]);
  sample.iteration_us = spans.durations_us(Kind::Iterate);
  sample.registry = &registry;
  add_layer_metrics(r, sample);
  add_svc_metrics(r, SvcSample{});  // no svc code runs in a replay: all 0
  r.add("trace.overhead_ratio", traced_wall / median(walls.raw), "ratio");
  r.add("host.scale", median(walls.scales), "ratio");
  r.add("trace.attributed_frac", (workload_s + sim_rms_s + core_s) / traced_wall,
        "fraction");

  const std::string path = opt.work_dir + "/trace_" + opt.workload + ".json";
  std::ofstream out(path);
  write_chrome_trace(out, {&spans}, traced_begin, kMaxTraceEvents);
  r.notes.push_back(out ? "chrome trace written to " + path
                        : "WARNING: cannot write " + path);
  return r;
}

}  // namespace pb
