// The streaming replay contract: submit_stream with ANY look-ahead window
// produces byte-for-byte the decision stream of submit_workload on the
// same jobs, and the O(live) modes (job retirement, streaming metrics)
// change no decision and no summary digit. This is what makes the
// bounded-memory replay engine trustworthy: its output is defined to be
// the materialized run's output.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "batch/batch_system.hpp"
#include "metrics/report.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace dbs {
namespace {

std::string drop_lines(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::string make_trace() {
  wl::swf::SwfGenParams gp;
  gp.jobs = 250;
  gp.seed = 5;
  std::ostringstream out;
  wl::swf::generate_swf(out, gp);
  return out.str();
}

batch::SystemConfig base_config(bool retire, bool streaming_metrics) {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 16;
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 4;
  cfg.retire_finished_jobs = retire;
  cfg.streaming_metrics = streaming_metrics;
  return cfg;
}

struct RunOutput {
  std::string trace;
  metrics::WorkloadSummary summary;
  std::uint64_t retired = 0;
};

/// window == 0 selects the materialized path (submit_workload).
RunOutput run_replay(const std::string& swf_text, std::size_t window,
                     bool retire, bool streaming_metrics) {
  wl::swf::SwfSourceConfig scfg;
  scfg.overlay_dynamic_fraction = 0.3;
  std::istringstream in(swf_text);
  wl::swf::SwfSource source(in, scfg);
  source.set_max_cores(16 * 8);

  batch::BatchSystem system(base_config(retire, streaming_metrics));
  obs::Registry registry;
  std::ostringstream trace;
  obs::Tracer tracer;
  tracer.attach_stream(trace, obs::TraceFormat::Jsonl);
  system.set_sinks({&tracer, &registry});

  if (window == 0) {
    wl::Workload workload;
    wl::SubmitSpec s;
    while (source.next(s)) workload.jobs.push_back(s);
    system.submit_workload(workload);
  } else {
    system.submit_stream(source, window);
  }
  system.run();
  tracer.close();

  RunOutput out;
  out.trace = drop_lines(trace.str(), "wall_us");
  out.summary = metrics::summarize(system.recorder());
  out.retired = system.server().jobs().retired_count();
  return out;
}

void expect_summaries_equal(const metrics::WorkloadSummary& a,
                            const metrics::WorkloadSummary& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.evolving_jobs, b.evolving_jobs);
  EXPECT_EQ(a.satisfied_dyn_jobs, b.satisfied_dyn_jobs);
  EXPECT_EQ(a.granted_dyn_requests, b.granted_dyn_requests);
  EXPECT_EQ(a.backfilled_jobs, b.backfilled_jobs);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.throughput_jobs_per_min, b.throughput_jobs_per_min);
  EXPECT_EQ(a.avg_wait, b.avg_wait);
  EXPECT_EQ(a.max_wait, b.max_wait);
  EXPECT_EQ(a.avg_turnaround, b.avg_turnaround);
}

TEST(ReplayEquivalence, StreamingMatchesMaterializedForAnyWindow) {
  const std::string swf = make_trace();
  const RunOutput materialized = run_replay(swf, 0, false, false);
  ASSERT_FALSE(materialized.trace.empty());
  ASSERT_GT(materialized.summary.jobs_completed, 0u);
  for (const std::size_t window : {std::size_t{1}, std::size_t{7},
                                   std::size_t{64}, std::size_t{100000}}) {
    const RunOutput streamed = run_replay(swf, window, false, false);
    EXPECT_EQ(streamed.trace, materialized.trace)
        << "decision stream diverged at window " << window;
    expect_summaries_equal(streamed.summary, materialized.summary);
  }
}

TEST(ReplayEquivalence, RetirementAndStreamingMetricsChangeNothing) {
  const std::string swf = make_trace();
  const RunOutput materialized = run_replay(swf, 0, false, false);
  const RunOutput lean = run_replay(swf, 32, true, true);
  EXPECT_EQ(lean.trace, materialized.trace);
  expect_summaries_equal(lean.summary, materialized.summary);
  // Retirement actually ran: every completed job's storage was reclaimed.
  EXPECT_EQ(lean.retired, materialized.summary.jobs_completed);
}

TEST(ReplayEquivalence, RetirementAloneKeepsMaterializedMetricsIntact) {
  // Retiring Job storage must not disturb the Recorder's materialized
  // records (it keeps its own copies).
  const std::string swf = make_trace();
  const RunOutput materialized = run_replay(swf, 0, false, false);
  const RunOutput retired = run_replay(swf, 16, true, false);
  EXPECT_EQ(retired.trace, materialized.trace);
  expect_summaries_equal(retired.summary, materialized.summary);
}

struct CancelRun {
  metrics::WorkloadSummary summary;
  std::uint64_t retired = 0;
  std::size_t live = 0;
  double used_core_seconds = 0.0;
};

/// Three jobs on 8 cores, zero latency: A (4 cores, evolving: it asks for
/// 4 more at 100 s while the cluster is full) and C (4 cores) start at 0,
/// B (8 cores) queues behind them. B is cancelled queued at 100 s, A
/// running at 200 s; C completes at 1000 s and the run goes dry.
CancelRun run_cancels(bool lean) {
  batch::SystemConfig cfg = base_config(lean, lean);
  cfg.cluster.node_count = 2;
  cfg.cluster.cores_per_node = 4;
  cfg.latency = rms::LatencyModel::zero();
  batch::BatchSystem system(cfg);

  wl::Workload workload;
  for (const auto& [name, cores, evolving] :
       {std::tuple{"A", 4, true}, {"C", 4, false}, {"B", 8, false}}) {
    wl::SubmitSpec s;
    s.spec.name = name;
    s.spec.cred = {"user", "grp", "", "batch", ""};
    s.spec.cores = cores;
    s.spec.walltime = Duration::seconds(2000);
    s.behavior.static_runtime = Duration::seconds(1000);
    s.behavior.evolving = evolving;
    s.behavior.first_ask_frac = 0.1;
    workload.jobs.push_back(s);
  }
  system.submit_workload(workload);
  // Ids follow submission order: A = 0, C = 1, B = 2.
  system.simulator().schedule_at(Time::from_seconds(100), [&system] {
    EXPECT_TRUE(system.server().cancel(JobId{2}));
  });
  system.simulator().schedule_at(Time::from_seconds(200), [&system] {
    EXPECT_TRUE(system.server().cancel(JobId{0}));
  });
  system.run();

  const metrics::Recorder& recorder = system.recorder();
  CancelRun out;
  out.summary = metrics::summarize(recorder);
  out.retired = system.server().jobs().retired_count();
  out.live = recorder.live().size();
  out.used_core_seconds =
      lean ? recorder.streaming_used_core_seconds()
           : recorder.used_core_seconds(recorder.first_submit(),
                                        recorder.last_finish());
  return out;
}

// A cancelled job is finished like a completed one: retirement reclaims it
// after the grace period, the streaming recorder folds it into its totals
// and drops its record, and its cores stop counting as used at the cancel.
TEST(ReplayEquivalence, CancelledJobsRetireAndStopCountingUsage) {
  const CancelRun full = run_cancels(false);
  const CancelRun lean = run_cancels(true);
  EXPECT_EQ(lean.retired, 3u);
  EXPECT_EQ(lean.live, 0u);
  // 8 cores busy until A's cancel, then C's 4 until it completes.
  EXPECT_EQ(lean.used_core_seconds, 8.0 * 200 + 4.0 * 800);
  EXPECT_EQ(full.used_core_seconds, lean.used_core_seconds);
  expect_summaries_equal(lean.summary, full.summary);
  EXPECT_EQ(full.summary.jobs_submitted, 3u);
  EXPECT_EQ(full.summary.jobs_completed, 1u);
  EXPECT_EQ(full.summary.evolving_jobs, 1u);
}

}  // namespace
}  // namespace dbs
