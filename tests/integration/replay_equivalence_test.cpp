// The streaming replay contract: submit_stream with ANY look-ahead window
// produces byte-for-byte the decision stream of submit_workload on the
// same jobs, and the O(live) modes (job retirement, streaming metrics)
// change no decision and no summary digit. This is what makes the
// bounded-memory replay engine trustworthy: its output is defined to be
// the materialized run's output. The SubmissionWindow tests pin what the
// window promises the sources that feed it, the service loop among them.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "batch/batch_system.hpp"
#include "common/assert.hpp"
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
  std::size_t next_calls = 0;
};

/// Counts the calls made to the source it wraps.
class CountingSource final : public wl::SubmissionSource {
 public:
  explicit CountingSource(wl::SubmissionSource& inner) : inner_(inner) {}
  bool next(wl::SubmitSpec& out) override {
    ++calls;
    return inner_.next(out);
  }
  std::size_t calls = 0;

 private:
  wl::SubmissionSource& inner_;
};

/// window == 0 selects the materialized path (submit_workload).
RunOutput run_replay(const std::string& swf_text, std::size_t window,
                     bool retire, bool streaming_metrics) {
  wl::swf::SwfSourceConfig scfg;
  scfg.overlay_dynamic_fraction = 0.3;
  std::istringstream in(swf_text);
  wl::swf::SwfSource swf(in, scfg);
  swf.set_max_cores(16 * 8);
  CountingSource source(swf);

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
  out.next_calls = source.calls;
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

// --- the submission window's contract ---------------------------------------

/// Names of the jobs the server took in and cancelled, in order.
struct ArrivalLog final : rms::ServerObserver {
  std::vector<std::string> submitted;
  std::vector<std::string> cancelled;
  void on_submit(const rms::Job& job) override {
    submitted.push_back(job.spec().name);
  }
  void on_cancel(const rms::Job& job, CoreCount) override {
    cancelled.push_back(job.spec().name);
  }
};

wl::SubmitSpec job_at(const std::string& name, std::int64_t at_s,
                      std::int64_t runtime_s = 30) {
  wl::SubmitSpec s;
  s.at = Time::from_seconds(at_s);
  s.spec.name = name;
  s.spec.cred = {"user", "grp", "", "batch", ""};
  s.spec.cores = 8;
  s.spec.walltime = Duration::seconds(2 * runtime_s);
  s.behavior.static_runtime = Duration::seconds(runtime_s);
  return s;
}

wl::SubmitSpec qdel_at(std::int64_t at_s, JobId job) {
  wl::SubmitSpec s;
  s.at = Time::from_seconds(at_s);
  s.cancel = job;
  return s;
}

/// Yields a list the test may extend between runs, setting one field at a
/// time as SwfSource does (and `cancel` only on a qdel), and counts the
/// calls it gets.
class ListSource final : public wl::SubmissionSource {
 public:
  bool next(wl::SubmitSpec& out) override {
    ++calls;
    if (pos_ == jobs.size()) return false;
    const wl::SubmitSpec& s = jobs[pos_++];
    out.at = s.at;
    if (s.cancel.valid()) {
      out.cancel = s.cancel;
      return true;
    }
    out.spec.name = s.spec.name;
    out.spec.cred = s.spec.cred;
    out.spec.cores = s.spec.cores;
    out.spec.walltime = s.spec.walltime;
    out.behavior.static_runtime = s.behavior.static_runtime;
    return true;
  }

  std::vector<wl::SubmitSpec> jobs;
  std::size_t calls = 0;

 private:
  std::size_t pos_ = 0;
};

TEST(SubmissionWindow, SecondSourceWhileOneIsLiveThrows) {
  batch::BatchSystem system(base_config(false, false));
  ArrivalLog log;
  system.server().add_observer(&log);
  ListSource first;
  first.jobs = {job_at("a0", 0), job_at("a1", 10), job_at("a2", 20)};
  ListSource second;
  second.jobs = {job_at("b0", 10'000)};

  system.submit_stream(first, 2);
  EXPECT_THROW(system.submit_stream(second), precondition_error);
  // a1's event pulls the false, but a2 is still armed: still live.
  system.run_until(Time::from_seconds(15));
  EXPECT_EQ(first.calls, 4u);
  EXPECT_EQ(system.armed_submissions(), 1u);
  EXPECT_THROW(system.submit_stream(second), precondition_error);
  system.run();

  system.submit_stream(second);
  system.run();
  EXPECT_EQ(log.submitted, (std::vector<std::string>{"a0", "a1", "a2", "b0"}));
  EXPECT_EQ(first.calls, 4u);
  EXPECT_EQ(second.calls, 2u);
}

TEST(SubmissionWindow, RearmedSourceFiresWhatArrivedLaterInOrder) {
  batch::BatchSystem system(base_config(false, false));
  ArrivalLog log;
  system.server().add_observer(&log);
  ListSource source;
  source.jobs = {job_at("j0", 0), job_at("j1", 5), job_at("j2", 5)};
  system.submit_stream(source, 2);
  system.run();
  EXPECT_EQ(source.calls, 4u);

  // More records arrive after the source ran dry: the window does not ask
  // until the owner re-arms it.
  for (const char* name : {"j3", "j4", "j5"})
    source.jobs.push_back(job_at(name, 10'000));
  EXPECT_EQ(system.armed_submissions(), 0u);
  EXPECT_EQ(source.calls, 4u);
  system.submit_stream(source, 2);  // re-arms the attached source
  EXPECT_EQ(system.armed_submissions(), 2u);
  system.run();
  EXPECT_EQ(source.calls, 8u);
  EXPECT_EQ(log.submitted,
            (std::vector<std::string>{"j0", "j1", "j2", "j3", "j4", "j5"}));
}

TEST(SubmissionWindow, DecreasingTimeFails) {
  // Window 4 pulls both records while it attaches, window 1 the second
  // one when the first fires.
  for (const std::size_t window : {std::size_t{1}, std::size_t{4}}) {
    batch::BatchSystem system(base_config(false, false));
    ListSource source;
    source.jobs = {job_at("late", 20), job_at("early", 10)};
    std::string error;
    try {
      system.submit_stream(source, window);
      system.run();
    } catch (const precondition_error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("submission source must yield non-decreasing times"),
              std::string::npos)
        << "window " << window << ": " << error;
  }
}

TEST(SubmissionWindow, ReplayAsksOncePerJobPlusOnce) {
  const std::string swf = make_trace();
  for (const std::size_t window : {std::size_t{0}, std::size_t{1},
                                   std::size_t{7}, std::size_t{64},
                                   std::size_t{100000}}) {
    const RunOutput out = run_replay(swf, window, false, false);
    ASSERT_GT(out.summary.jobs_submitted, 0u);
    EXPECT_EQ(out.next_calls, out.summary.jobs_submitted + 1)
        << "window " << window;
  }
}

// The window pulls each arrival into a fresh slot: a source that never sets
// `cancel` (as SwfSource does not) fires no qdel, even through slots that
// held one.
TEST(SubmissionWindow, SourceThatNeverSetsCancelFiresNone) {
  batch::BatchSystem system(base_config(false, false));
  ArrivalLog log;
  system.server().add_observer(&log);
  ListSource first;
  first.jobs = {job_at("a", 0, 1000), qdel_at(50, JobId{0}),
                qdel_at(60, JobId{7}), job_at("b", 70)};
  system.submit_stream(first, 2);
  system.run();
  EXPECT_EQ(log.cancelled, (std::vector<std::string>{"a"}));

  ListSource second;
  for (const char* name : {"c", "d", "e", "f"})
    second.jobs.push_back(job_at(name, 10'000));
  system.submit_stream(second, 2);
  system.run();
  EXPECT_EQ(log.cancelled, (std::vector<std::string>{"a"}));
  EXPECT_EQ(log.submitted,
            (std::vector<std::string>{"a", "b", "c", "d", "e", "f"}));

  // The materialized path delivers the same qdels.
  batch::BatchSystem materialized(base_config(false, false));
  ArrivalLog reference;
  materialized.server().add_observer(&reference);
  wl::Workload workload;
  workload.jobs = first.jobs;
  materialized.submit_workload(workload);
  materialized.run();
  EXPECT_EQ(reference.cancelled, (std::vector<std::string>{"a"}));
  EXPECT_EQ(reference.submitted, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace dbs
