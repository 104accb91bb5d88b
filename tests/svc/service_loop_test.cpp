// End-to-end service-core guarantees:
//
//   * service mode (ingest + ServiceLoop) is observably identical to the
//     one-shot replay paths on the same jobs;
//   * a concurrently-produced live run replays byte-identically from its
//     own WAL drain order, single-threaded;
//   * clean shutdown / reopen continues to the uninterrupted result;
//   * crash injection at EVERY decision index: recovery from any WAL
//     prefix (with or without snapshots, with or without a torn tail)
//     reconstructs ==-identical state and re-makes / continues the
//     decision stream byte-for-byte;
//   * the snapshot writer thread: the state dir is complete and
//     byte-identical across runs once finalize() returns, and a writer
//     error surfaces on the loop thread.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_system.hpp"
#include "common/assert.hpp"
#include "metrics/report.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "svc/ingest.hpp"
#include "svc/service_loop.hpp"
#include "svc/state_store.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace dbs::svc {
namespace {

namespace fs = std::filesystem;

batch::SystemConfig durable_config() {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 4;
  cfg.latency = rms::LatencyModel::zero();
  cfg.streaming_metrics = true;
  cfg.retire_finished_jobs = true;
  return cfg;
}

/// By default the jobs are drawn for a 1024-core machine and clamped to
/// the 64-core test cluster, which they overload (the queue deepens for
/// the whole run); `cluster_sized` draws them for 64 cores, spaced so the
/// queue stays a few hours deep.
wl::Workload make_workload(std::uint64_t jobs, std::uint64_t seed,
                           bool cluster_sized = false) {
  wl::swf::SwfGenParams gp;
  gp.jobs = jobs;
  gp.seed = seed;
  if (cluster_sized) {
    gp.max_procs = 64;
    gp.mean_interarrival_s = 300;
  }
  std::ostringstream out;
  wl::swf::generate_swf(out, gp);

  wl::swf::SwfSourceConfig scfg;
  scfg.overlay_dynamic_fraction = 0.3;
  std::istringstream in(out.str());
  wl::swf::SwfSource source(in, scfg);
  source.set_max_cores(8 * 8);

  wl::Workload workload;
  wl::SubmitSpec s;
  while (source.next(s)) workload.jobs.push_back(s);
  return workload;
}

ServiceConfig service_config(const std::string& state_dir,
                             std::uint64_t snapshot_every = 32,
                             std::size_t keep_snapshots = 0) {
  ServiceConfig scfg;
  scfg.state_dir = state_dir;
  scfg.snapshot_every = snapshot_every;
  scfg.keep_snapshots = keep_snapshots;
  scfg.tick = Duration::seconds(3600);
  return scfg;
}

/// Every qdel the server carries out: job name -> the cores it released
/// (0 when the job was still queued).
struct CancelLog final : rms::ServerObserver {
  std::map<std::string, CoreCount> cancelled;
  void on_cancel(const rms::Job& job, CoreCount released) override {
    cancelled[job.spec().name] = released;
  }
};

struct ServiceResult {
  metrics::WorkloadSummary summary;
  bool recovered = false;
  std::uint64_t wal_ingest = 0;
  std::uint64_t wal_decisions = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t ticks = 0;
  std::map<std::string, CoreCount> cancelled;
};

/// Pushes one workload record: a qdel when it names a job to cancel.
void push(IngestQueue& ingest, const wl::SubmitSpec& s) {
  if (s.cancel.valid())
    ingest.cancel(s.at, s.cancel);
  else
    ingest.submit(s.at, s.spec, s.behavior);
}

/// Runs `workload` through ingest + ServiceLoop to completion (or
/// max_ticks). With a state_dir, recovers first; the producer skips the
/// records the WAL already holds, exactly like a restarted trace feeder.
///
/// With one producer the test itself feeds the loop in lockstep: push one
/// record, tick, repeat; then close the queue, tick until drained() and
/// finalize(), which is the cycle run() performs. Every count the callers
/// assert on (decisions before max_ticks, snapshots) is then fixed by the
/// workload, not by how a producer thread races the ticks. Several
/// producers run as racing threads against run().
ServiceResult run_service(const wl::Workload& workload,
                          const ServiceConfig& scfg,
                          std::size_t producer_threads = 1) {
  CancelLog cancels;
  IngestQueue ingest;
  batch::BatchSystem system(durable_config());
  system.server().add_observer(&cancels);
  ServiceLoop& service = system.attach_ingest(ingest, scfg);

  ServiceResult r;
  if (!scfg.state_dir.empty()) r.recovered = system.open_state();
  const std::uint64_t skip = service.wal_ingest_total();

  if (producer_threads <= 1) {
    const std::uint64_t start_ticks = service.ticks();
    const auto budget_left = [&] {
      return scfg.max_ticks == 0 ||
             service.ticks() - start_ticks < scfg.max_ticks;
    };
    for (std::size_t i = skip; i < workload.jobs.size() && budget_left();
         ++i) {
      push(ingest, workload.jobs[i]);
      service.tick();
    }
    if (budget_left()) {
      ingest.close();
      while (!service.drained() && budget_left()) service.tick();
    }
    service.finalize();
  } else {
    // Round-robin the workload across racing producers; close() once all
    // of them are done (multi-producer runs never resume, so skip == 0).
    EXPECT_EQ(skip, 0u);
    std::vector<std::thread> producers;
    std::atomic<std::size_t> live{producer_threads};
    for (std::size_t t = 0; t < producer_threads; ++t) {
      producers.emplace_back([&, t]() {
        for (std::size_t i = t; i < workload.jobs.size();
             i += producer_threads)
          push(ingest, workload.jobs[i]);
        if (live.fetch_sub(1) == 1) ingest.close();
      });
    }
    system.run_service();
    for (auto& p : producers) p.join();
  }

  r.summary = metrics::summarize(system.recorder());
  r.wal_ingest = service.wal_ingest_total();
  r.wal_decisions = service.wal_decision_total();
  r.snapshots = service.snapshots_written();
  r.ticks = service.ticks();
  r.cancelled = cancels.cancelled;
  system.server().remove_observer(&cancels);
  return r;
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
  EXPECT_EQ(a.avg_wait, b.avg_wait);
  EXPECT_EQ(a.max_wait, b.max_wait);
  EXPECT_EQ(a.avg_turnaround, b.avg_turnaround);
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("dbs_service_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] std::string path() const { return dir_.string(); }
  [[nodiscard]] std::string sub(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

std::vector<obs::rec::PackedRecord> decision_stream(
    const std::string& state_dir) {
  return read_wal(wal_path(state_dir)).decisions;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const unsigned char* data,
                std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

/// Byte offsets just past each decision frame of a WAL file, in stream
/// order: offset i is where a crash "right after decision i became
/// durable" cuts the file.
std::vector<std::uint64_t> decision_frame_ends(const std::string& wal_file) {
  const std::vector<unsigned char> data = read_file(wal_file);
  std::vector<std::uint64_t> ends;
  std::size_t pos = kWalHeaderSize;
  while (pos + 5 <= data.size()) {
    const std::uint8_t type = data[pos];
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i)
      len |= static_cast<std::uint32_t>(data[pos + 1 + i]) << (8 * i);
    if (pos + 5 + len > data.size()) break;
    pos += 5 + len;
    if (type == kWalDecision) ends.push_back(pos);
  }
  return ends;
}

/// Builds a state directory as a crash at `wal_bytes` would leave it: the
/// baseline WAL cut to that many bytes, plus (optionally) every baseline
/// snapshot — recovery itself must discard the ones the shorter WAL can no
/// longer back.
void make_crash_dir(const std::string& base_dir, const std::string& out_dir,
                    std::uint64_t wal_bytes, bool with_snapshots) {
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);
  const std::vector<unsigned char> wal = read_file(wal_path(base_dir));
  ASSERT_LE(wal_bytes, wal.size());
  write_file(wal_path(out_dir), wal.data(), wal_bytes);
  if (!with_snapshots) return;
  for (const auto& entry : fs::directory_iterator(base_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("snapshot-"))
      fs::copy_file(entry.path(), fs::path(out_dir) / name);
  }
}

/// Recovers a service from `state_dir` (open() only — nothing new fed) and
/// returns the reconstructed image plus the loop's recovery counters.
struct Recovered {
  SystemState state;
  Time last_admitted;
  std::uint64_t wal_ingest = 0;
  std::uint64_t wal_decisions = 0;
  bool recovered = false;
};

/// `align_to`: advance the recovered system to this instant before the
/// capture. Recovery parks the clock wherever its inputs end — at the
/// restored snapshot's drain boundary, or at the last re-made decision —
/// so two recoveries of the same WAL can sit a sub-tick apart; running the
/// earlier one forward (deterministic, no new inputs) makes the states
/// directly comparable.
Recovered recover_only(const std::string& state_dir, Time align_to = Time()) {
  IngestQueue ingest;
  batch::BatchSystem system(durable_config());
  ServiceLoop& service =
      system.attach_ingest(ingest, service_config(state_dir));
  Recovered r;
  r.recovered = system.open_state();
  if (align_to > system.simulator().now()) system.run_until(align_to);
  r.state = capture_state(system);
  r.last_admitted = service.last_admitted();
  r.wal_ingest = service.wal_ingest_total();
  r.wal_decisions = service.wal_decision_total();
  return r;
}

// --- service vs one-shot ----------------------------------------------------

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

/// Records a workload above three submission windows: the loop refills
/// its window, steps across ingest chunks and, reopened without its
/// snapshots, re-runs a recovery tail longer than the window. Its jobs are
/// sized for the test cluster, which keeps the run short.
constexpr std::uint64_t kWindowsJobs = 3500;
static_assert(kWindowsJobs > 3 * batch::kSubmissionWindow);

/// The first line where two texts differ, or "" when they are equal. A
/// failure names it instead of printing a full diff, which for traces of
/// thousands of jobs would need memory quadratic in their length.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream in_a(a);
  std::istringstream in_b(b);
  std::string line_a;
  std::string line_b;
  for (std::size_t line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(in_a, line_a));
    const bool more_b = static_cast<bool>(std::getline(in_b, line_b));
    if (!more_a && !more_b) return "";
    if (more_a != more_b || line_a != line_b)
      return "line " + std::to_string(line) + ": " +
             (more_a ? line_a : "<end>") + " | " + (more_b ? line_b : "<end>");
  }
}

TEST(ServiceLoop, MatchesOneShotStreamingReplay) {
  for (const std::uint64_t jobs : {std::uint64_t{120}, kWindowsJobs}) {
    SCOPED_TRACE(std::to_string(jobs) + " jobs");
    const wl::Workload workload =
        make_workload(jobs, 5, /*cluster_sized=*/jobs == kWindowsJobs);

    // One-shot reference: the streaming replay path.
    batch::BatchSystem oneshot(durable_config());
    obs::Registry reg_a;
    std::ostringstream trace_a;
    obs::Tracer tracer_a;
    tracer_a.attach_stream(trace_a, obs::TraceFormat::Jsonl);
    oneshot.set_sinks({&tracer_a, &reg_a});
    oneshot.submit_workload(workload);
    oneshot.run();
    tracer_a.close();

    // Service mode on the same jobs, one producer thread, no durability.
    IngestQueue ingest;
    batch::BatchSystem served(durable_config());
    obs::Registry reg_b;
    std::ostringstream trace_b;
    obs::Tracer tracer_b;
    tracer_b.attach_stream(trace_b, obs::TraceFormat::Jsonl);
    served.set_sinks({&tracer_b, &reg_b});
    served.attach_ingest(ingest, service_config(""));
    std::thread producer([&]() {
      for (const auto& s : workload.jobs)
        ingest.submit(s.at, s.spec, s.behavior);
      ingest.close();
    });
    served.run_service();
    producer.join();
    tracer_b.close();

    EXPECT_EQ(metrics::summarize(served.recorder()).jobs_completed, jobs);
    expect_summaries_equal(metrics::summarize(served.recorder()),
                           metrics::summarize(oneshot.recorder()));
    EXPECT_EQ(first_difference(drop_lines(trace_b.str(), "wall_us"),
                               drop_lines(trace_a.str(), "wall_us")),
              "")
        << "service mode changed the decision/trace stream";
  }
}

TEST(ServiceLoop, DurableModeRequiresZeroLatencyAndStreamingMetrics) {
  TempDir dir("preconditions");
  {
    batch::SystemConfig cfg = durable_config();
    cfg.latency = rms::LatencyModel{};  // defaults are non-zero
    IngestQueue ingest;
    batch::BatchSystem system(cfg);
    EXPECT_THROW(system.attach_ingest(ingest, service_config(dir.path())),
                 precondition_error);
  }
  {
    batch::SystemConfig cfg = durable_config();
    cfg.streaming_metrics = false;
    IngestQueue ingest;
    batch::BatchSystem system(cfg);
    EXPECT_THROW(system.attach_ingest(ingest, service_config(dir.path())),
                 precondition_error);
  }
}

// --- concurrent ingest differential -----------------------------------------

// The tentpole differential: a live run with racing producers, then a
// single-threaded replay of the drain order its own WAL recorded. Admission
// stamps and the whole decision stream must be byte-identical — the drained
// sequence, not the thread interleaving, defines the run.
TEST(ServiceLoop, ConcurrentIngestReplaysByteIdentical) {
  TempDir dir("concurrent_diff");
  const wl::Workload workload = make_workload(120, 7);

  const ServiceResult live =
      run_service(workload, service_config(dir.sub("live")), 4);
  EXPECT_EQ(live.summary.jobs_submitted, workload.jobs.size());
  EXPECT_EQ(live.summary.jobs_completed, workload.jobs.size());

  // Replay the drained sequence from the live WAL, one thread.
  const WalContents live_wal = read_wal(wal_path(dir.sub("live")));
  ASSERT_EQ(live_wal.ingest.size(), workload.jobs.size());
  wl::Workload drained;
  for (const IngestRecord& r : live_wal.ingest) {
    ASSERT_EQ(r.kind, IngestKind::Submit);
    wl::SubmitSpec s;
    s.at = r.requested;
    s.spec = r.spec;
    s.behavior = r.behavior;
    drained.jobs.push_back(std::move(s));
  }
  const ServiceResult replay =
      run_service(drained, service_config(dir.sub("replay")), 1);

  expect_summaries_equal(replay.summary, live.summary);
  const WalContents replay_wal = read_wal(wal_path(dir.sub("replay")));
  ASSERT_EQ(replay_wal.ingest.size(), live_wal.ingest.size());
  for (std::size_t i = 0; i < live_wal.ingest.size(); ++i) {
    // Admission is a pure function of the drained sequence: the replay
    // re-derives the exact stamps the racing producers got.
    EXPECT_EQ(replay_wal.ingest[i].admitted, live_wal.ingest[i].admitted)
        << "admission stamp diverged at record " << i;
    EXPECT_EQ(replay_wal.ingest[i].seq, live_wal.ingest[i].seq);
  }
  ASSERT_EQ(replay_wal.decisions.size(), live_wal.decisions.size());
  for (std::size_t i = 0; i < live_wal.decisions.size(); ++i)
    ASSERT_TRUE(replay_wal.decisions[i] == live_wal.decisions[i])
        << "decision " << i << " diverged";
}

// --- clean shutdown / reopen ------------------------------------------------

/// Runs `workload` uninterrupted, then again stopped after `max_ticks`
/// and reopened (with the state dir's snapshots removed when
/// `drop_snapshots`, so recovery re-runs the whole WAL): the reopened run
/// must finish on the uninterrupted summary and decision stream.
void expect_reopen_continues(const TempDir& dir, const wl::Workload& workload,
                             std::uint64_t max_ticks, bool drop_snapshots) {
  const ServiceResult baseline =
      run_service(workload, service_config(dir.sub("base")));
  ASSERT_EQ(baseline.summary.jobs_completed, workload.jobs.size());

  // First run: stop after a bounded number of drain cycles, mid-workload.
  ServiceConfig stopped = service_config(dir.sub("split"));
  stopped.max_ticks = max_ticks;
  const ServiceResult first = run_service(workload, stopped);
  ASSERT_LT(first.wal_decisions, baseline.wal_decisions)
      << "max_ticks did not stop mid-run; shrink it";
  EXPECT_FALSE(first.recovered);
  if (drop_snapshots) {
    for (const auto& entry : fs::directory_iterator(dir.sub("split")))
      if (entry.path().extension() == ".dbss") fs::remove(entry.path());
  }

  // Second run: reopen the same directory and finish.
  const ServiceResult second =
      run_service(workload, service_config(dir.sub("split")));
  EXPECT_TRUE(second.recovered);
  expect_summaries_equal(second.summary, baseline.summary);
  EXPECT_EQ(second.wal_ingest, baseline.wal_ingest);
  EXPECT_EQ(second.wal_decisions, baseline.wal_decisions);

  const auto base_stream = decision_stream(dir.sub("base"));
  const auto split_stream = decision_stream(dir.sub("split"));
  ASSERT_EQ(split_stream.size(), base_stream.size());
  for (std::size_t i = 0; i < base_stream.size(); ++i)
    ASSERT_EQ(split_stream[i], base_stream[i])
        << "decision " << i << " diverged across the shutdown";
}

TEST(ServiceLoop, CleanShutdownAndReopenContinuesToTheSameResult) {
  {
    SCOPED_TRACE("80 jobs");
    TempDir dir("reopen");
    expect_reopen_continues(dir, make_workload(80, 13), 40, false);
  }
  {
    // One record per tick: the first run logs 2,500 records, and with no
    // snapshot left all of them are the recovery tail.
    SCOPED_TRACE(std::to_string(kWindowsJobs) + " jobs, snapshots removed");
    TempDir dir("reopen_windows");
    expect_reopen_continues(
        dir, make_workload(kWindowsJobs, 13, /*cluster_sized=*/true), 2500,
        true);
  }
}

// --- qdel through the submission window -------------------------------------

/// Two whole-machine jobs (the first runs, the second queues behind it) and
/// a small one queued behind both; then qdels of the queued wide job, the
/// running one and an id no job has, each a record of its own in ticket
/// order; then a few jobs that run once the machine is free.
wl::Workload cancel_workload() {
  const auto job = [](const std::string& name, std::int64_t at_s,
                      CoreCount cores) {
    wl::SubmitSpec s;
    s.at = Time::from_seconds(at_s);
    s.spec.name = name;
    s.spec.cred = {"user", "grp", "", "batch", ""};
    s.spec.cores = cores;
    s.spec.walltime = Duration::seconds(2000);
    s.behavior.static_runtime = Duration::seconds(1000);
    return s;
  };
  const auto qdel = [](std::int64_t at_s, std::uint64_t id) {
    wl::SubmitSpec s;
    s.at = Time::from_seconds(at_s);
    s.cancel = JobId{id};
    return s;
  };
  wl::Workload w;
  w.jobs = {job("wide0", 1, 64), job("wide1", 1, 64), job("small2", 10, 8),
            qdel(100, 1),        qdel(200, 0),        qdel(300, 999)};
  for (int i = 0; i < 6; ++i)
    w.jobs.push_back(job("tail" + std::to_string(i), 400 + 50 * i, 24));
  return w;
}

// A qdel rides the window in its ticket order, like a qsub: fed in
// lockstep it cancels the queued job and the running one, and an id no job
// has changes nothing. Reopened with its snapshots removed, recovery
// re-runs the whole WAL, so the same qdels fire again from the recovery
// tail, each re-made decision checked against the log.
TEST(ServiceLoop, QdelsFireThroughTheWindowAndAgainFromTheRecoveryTail) {
  TempDir dir("qdel");
  const wl::Workload workload = cancel_workload();
  const std::map<std::string, CoreCount> expected{{"wide0", 64},
                                                  {"wide1", 0}};

  const ServiceResult live = run_service(workload, service_config(dir.path()));
  EXPECT_EQ(live.cancelled, expected);
  EXPECT_EQ(live.summary.jobs_submitted, workload.jobs.size() - 3);
  EXPECT_EQ(live.summary.jobs_completed, workload.jobs.size() - 5);
  EXPECT_EQ(live.wal_ingest, workload.jobs.size());
  const auto live_stream = decision_stream(dir.path());

  for (const auto& entry : fs::directory_iterator(dir.path()))
    if (entry.path().extension() == ".dbss") fs::remove(entry.path());
  const ServiceResult reopened =
      run_service(workload, service_config(dir.path()));
  EXPECT_TRUE(reopened.recovered);
  EXPECT_EQ(reopened.cancelled, expected);
  expect_summaries_equal(reopened.summary, live.summary);
  EXPECT_EQ(reopened.wal_ingest, live.wal_ingest);
  EXPECT_EQ(reopened.wal_decisions, live.wal_decisions);
  const auto reopened_stream = decision_stream(dir.path());
  ASSERT_EQ(reopened_stream.size(), live_stream.size());
  for (std::size_t i = 0; i < live_stream.size(); ++i)
    ASSERT_EQ(reopened_stream[i], live_stream[i]) << "decision " << i;
}

// --- crash injection --------------------------------------------------------

// For EVERY decision index k of a finished durable run, simulate a crash
// that made exactly k decisions durable: cut the WAL just past decision
// k-1's frame and hand recovery the full snapshot set (it must discard the
// now-unbacked ones). Recovery from that prefix WITH snapshots and from
// the same prefix WITHOUT any snapshot (pure re-execution from genesis —
// the ground truth) must reconstruct ==-identical SystemStates; open()
// itself byte-verifies every re-made decision against the log. A stride of
// cut points then runs on to completion and must land on the baseline's
// exact decision stream and summary.
TEST(ServiceLoop, CrashInjectionAtEveryDecisionIndex) {
  TempDir dir("crash");
  const wl::Workload workload = make_workload(16, 9);

  ServiceConfig base_cfg = service_config(dir.sub("base"),
                                          /*snapshot_every=*/24,
                                          /*keep_snapshots=*/0);
  const ServiceResult baseline = run_service(workload, base_cfg);
  ASSERT_EQ(baseline.summary.jobs_completed, workload.jobs.size());
  ASSERT_GT(baseline.snapshots, 2u) << "crash matrix needs mid-run snapshots";
  const auto base_stream = decision_stream(dir.sub("base"));
  ASSERT_EQ(base_stream.size(), baseline.wal_decisions);

  const std::vector<std::uint64_t> cuts =
      decision_frame_ends(wal_path(dir.sub("base")));
  ASSERT_EQ(cuts.size(), base_stream.size());
  GTEST_LOG_(INFO) << "crash matrix: " << cuts.size() << " decision cuts";

  const std::string snap_dir = dir.sub("cut_snap");
  const std::string nosnap_dir = dir.sub("cut_nosnap");
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    make_crash_dir(dir.sub("base"), snap_dir, cuts[k], true);
    make_crash_dir(dir.sub("base"), nosnap_dir, cuts[k], false);

    const Recovered with_snap = recover_only(snap_dir);
    const Recovered pure = recover_only(nosnap_dir, with_snap.state.now);
    ASSERT_TRUE(with_snap.recovered);
    ASSERT_TRUE(pure.recovered);
    // A cut can land between two decisions of the same simulated instant;
    // recovery re-fires the instant atomically, so it may re-make (and
    // append) a few decisions past the cut — those must be the baseline's
    // own next decisions, byte for byte (checked below). Never fewer than
    // the log holds, and identical with or without snapshots.
    ASSERT_GE(with_snap.wal_decisions, k + 1);
    ASSERT_EQ(pure.wal_decisions, with_snap.wal_decisions);
    ASSERT_EQ(with_snap.wal_ingest, pure.wal_ingest);
    ASSERT_EQ(with_snap.last_admitted, pure.last_admitted);
    {
      // Compared per component so a divergence names the layer it is in.
      const SystemState& a = with_snap.state;
      const SystemState& b = pure.state;
      ASSERT_EQ(a.now, b.now) << "cut " << k;
      ASSERT_EQ(a.next_job, b.next_job) << "cut " << k;
      ASSERT_EQ(a.next_request, b.next_request) << "cut " << k;
      ASSERT_TRUE(a.jobs == b.jobs) << "server jobs diverged at cut " << k;
      ASSERT_TRUE(a.dyn_fifo == b.dyn_fifo) << "dyn FIFO diverged at cut " << k;
      ASSERT_TRUE(a.hints == b.hints) << "hints diverged at cut " << k;
      ASSERT_TRUE(a.node_states == b.node_states)
          << "cluster diverged at cut " << k;
      ASSERT_TRUE(a.moms == b.moms) << "moms diverged at cut " << k;
      ASSERT_TRUE(a.scheduler == b.scheduler)
          << "scheduler diverged at cut " << k;
      ASSERT_TRUE(a.metrics == b.metrics) << "metrics diverged at cut " << k;
      ASSERT_TRUE(a == b)
          << "snapshot recovery diverged from pure WAL re-execution at "
          << "decision " << k;
    }

    // Whatever recovery appended past the cut is the baseline's own
    // continuation.
    const auto recovered_stream = decision_stream(snap_dir);
    ASSERT_EQ(recovered_stream.size(), with_snap.wal_decisions);
    ASSERT_LE(recovered_stream.size(), base_stream.size());
    for (std::size_t i = 0; i < recovered_stream.size(); ++i)
      ASSERT_EQ(recovered_stream[i], base_stream[i])
          << "decision " << i << " diverged after recovering from cut " << k;
  }

  // A crash rarely lands on a frame boundary: cutting mid-frame must
  // recover exactly like the boundary before it.
  {
    const std::size_t k = cuts.size() / 2;
    make_crash_dir(dir.sub("base"), snap_dir, cuts[k], true);
    const Recovered at_boundary = recover_only(snap_dir);
    make_crash_dir(dir.sub("base"), nosnap_dir, cuts[k] + 3, true);
    const Recovered torn = recover_only(nosnap_dir, at_boundary.state.now);
    EXPECT_EQ(torn.wal_decisions, at_boundary.wal_decisions);
    EXPECT_TRUE(torn.state == at_boundary.state)
        << "a torn tail changed the recovered image";
  }

  // Continue to completion from a stride of cut points (plus the first and
  // last): the re-fed producer skips what the WAL holds, and the final
  // decision stream must be byte-for-byte the baseline's.
  std::vector<std::size_t> continue_at{0, cuts.size() - 1};
  for (std::size_t k = 7; k + 1 < cuts.size(); k += 11)
    continue_at.push_back(k);
  for (const std::size_t k : continue_at) {
    make_crash_dir(dir.sub("base"), snap_dir, cuts[k], true);
    const ServiceResult resumed =
        run_service(workload, service_config(snap_dir, 24, 0));
    EXPECT_TRUE(resumed.recovered);
    expect_summaries_equal(resumed.summary, baseline.summary);
    ASSERT_EQ(resumed.wal_decisions, baseline.wal_decisions)
        << "resume from decision " << k;
    const auto resumed_stream = decision_stream(snap_dir);
    ASSERT_EQ(resumed_stream.size(), base_stream.size());
    for (std::size_t i = 0; i < base_stream.size(); ++i)
      ASSERT_EQ(resumed_stream[i], base_stream[i])
          << "decision " << i << " diverged after resuming from cut " << k;
  }
}

// --- snapshot cadence -------------------------------------------------------

TEST(ServiceLoop, SnapshotCadenceAndPruning) {
  TempDir dir("cadence");
  const wl::Workload workload = make_workload(60, 21);

  ServiceConfig scfg = service_config(dir.sub("state"),
                                      /*snapshot_every=*/16,
                                      /*keep_snapshots=*/2);
  const ServiceResult result = run_service(workload, scfg);
  EXPECT_EQ(result.summary.jobs_completed, workload.jobs.size());
  EXPECT_GT(result.snapshots, 2u);

  std::size_t snapshot_files = 0;
  bool has_wal = false;
  for (const auto& entry : fs::directory_iterator(dir.sub("state"))) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("snapshot-")) ++snapshot_files;
    if (name == "wal.dbsw") has_wal = true;
  }
  EXPECT_TRUE(has_wal);
  EXPECT_LE(snapshot_files, 2u);
  EXPECT_GE(snapshot_files, 1u);

  // The pruned directory still recovers (the final snapshot survives).
  const Recovered again = recover_only(dir.sub("state"));
  EXPECT_TRUE(again.recovered);
  EXPECT_EQ(again.wal_decisions, result.wal_decisions);
}

// --- the snapshot writer ----------------------------------------------------

/// Queues every record of `workload` and closes the ingest: the closed loop
/// perfbench drives, every record queued before the first tick.
void queue_all(IngestQueue& ingest, const wl::Workload& workload) {
  for (const auto& s : workload.jobs) ingest.submit(s.at, s.spec, s.behavior);
  ingest.close();
}

/// Every file in `dir`, name -> bytes.
std::map<std::string, std::vector<unsigned char>> dir_contents(
    const std::string& dir) {
  std::map<std::string, std::vector<unsigned char>> out;
  for (const auto& entry : fs::directory_iterator(dir))
    out[entry.path().filename().string()] = read_file(entry.path().string());
  return out;
}

// The loop arms a window of the records it holds, not its whole backlog:
// a closed loop queues every record before the first tick, and the event
// queue still holds no more than the window plus the running jobs' events.
TEST(ServiceLoop, ClosedLoopArmsAWindowNotItsBacklog) {
  TempDir dir("window");
  constexpr std::size_t kJobs = 5000;
  constexpr std::size_t kBound = kJobs / 2;
  static_assert(batch::kSubmissionWindow < kBound);
  const wl::Workload workload =
      make_workload(kJobs, 17, /*cluster_sized=*/true);
  IngestQueue ingest;
  batch::BatchSystem system(durable_config());
  ServiceLoop& service =
      system.attach_ingest(ingest, service_config(dir.path(), 0));
  ASSERT_FALSE(system.open_state());
  queue_all(ingest, workload);
  service.tick();
  EXPECT_EQ(service.wal_ingest_total(), kJobs);
  EXPECT_LT(system.simulator().pending_events(), kBound);
  while (!service.drained()) {
    service.tick();
    ASSERT_LT(system.simulator().pending_events(), kBound);
  }
  service.finalize();
  EXPECT_EQ(metrics::summarize(system.recorder()).jobs_completed, kJobs);
}

// Snapshots are published by a writer thread, but the state dir is read
// only once finalize() has returned, and then it is complete: the newest
// snapshot covers every decision, pruning has run, no temp file is left,
// and two runs of one workload hold the same names with the same bytes.
TEST(ServiceLoop, ClosedLoopRunsLeaveIdenticalStateDirs) {
  TempDir dir("identical");
  const wl::Workload workload = make_workload(120, 3);
  constexpr std::size_t kKeep = 3;
  std::map<std::string, std::vector<unsigned char>> contents[2];
  for (int run = 0; run < 2; ++run) {
    const std::string state = dir.sub("run" + std::to_string(run));
    {
      IngestQueue ingest;
      batch::BatchSystem system(durable_config());
      ServiceLoop& service =
          system.attach_ingest(ingest, service_config(state, 16, kKeep));
      ASSERT_FALSE(system.open_state());
      queue_all(ingest, workload);
      while (!service.drained()) service.tick();
      service.finalize();

      contents[run] = dir_contents(state);
      ASSERT_GT(service.snapshots_written(), kKeep) << "nothing was pruned";
      std::size_t snapshots = 0;
      for (const auto& [name, bytes] : contents[run]) {
        EXPECT_FALSE(name.ends_with(".tmp")) << name;
        if (name.starts_with("snapshot-")) ++snapshots;
      }
      EXPECT_EQ(snapshots, kKeep);
      const std::string newest =
          fs::path(snapshot_path(state, service.wal_decision_total()))
              .filename()
              .string();
      ASSERT_TRUE(contents[run].contains(newest)) << newest;
      EXPECT_EQ(decode_state(contents[run][newest]).wal_decisions,
                service.wal_decision_total());
    }
    // Destroying the loop wrote nothing more: finalize() left it complete.
    EXPECT_TRUE(dir_contents(state) == contents[run]);
  }
  EXPECT_TRUE(contents[0] == contents[1])
      << "two closed-loop runs left different state dirs";
}

// A directory squatting on the first snapshot's temp name makes the writer
// fail. The loop rethrows its precondition_error from tick() or finalize();
// a loop destroyed while that writer is in flight, or after the error,
// waits for it and throws nothing, and logs an error it never rethrew.
TEST(ServiceLoop, SnapshotWriterErrorIsRethrownOnTheLoopThread) {
  TempDir dir("writer_error");
  const wl::Workload workload = make_workload(60, 21);
  constexpr std::uint64_t kEvery = 16;

  // The first snapshot is taken at the end of the first tick that reaches
  // kEvery decisions; the closed-loop drive fixes that count.
  std::uint64_t first = 0;
  {
    IngestQueue ingest;
    batch::BatchSystem system(durable_config());
    ServiceLoop& service = system.attach_ingest(
        ingest, service_config(dir.sub("reference"), kEvery));
    ASSERT_FALSE(system.open_state());
    queue_all(ingest, workload);
    while (service.wal_decision_total() < kEvery) service.tick();
    first = service.wal_decision_total();
  }
  ASSERT_GE(first, kEvery);

  for (const bool finish : {false, true}) {
    const std::string state = dir.sub(finish ? "finish" : "stop");
    const std::string squat = snapshot_path(state, first) + ".tmp";
    fs::create_directories(squat);
    auto ingest = std::make_unique<IngestQueue>();
    auto system = std::make_unique<batch::BatchSystem>(durable_config());
    ServiceLoop& service =
        system->attach_ingest(*ingest, service_config(state, kEvery));
    ASSERT_FALSE(system->open_state());
    queue_all(*ingest, workload);
    if (finish) {
      std::string error;
      try {
        while (!service.drained()) service.tick();
        service.finalize();
      } catch (const precondition_error& e) {
        error = e.what();
      }
      EXPECT_NE(error.find("cannot create snapshot: " + squat),
                std::string::npos)
          << "error: " << error;
      EXPECT_EQ(service.snapshots_written(), 0u);
    } else {
      // Stop right after the tick that hands the doomed snapshot over.
      while (service.wal_decision_total() < kEvery) service.tick();
      ASSERT_EQ(service.wal_decision_total(), first);
    }
    testing::internal::CaptureStderr();
    EXPECT_NO_THROW(system.reset());
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(log.find("cannot create snapshot: " + squat) != std::string::npos,
              !finish)
        << "log: " << log;
    EXPECT_TRUE(fs::is_directory(squat));
    EXPECT_FALSE(fs::exists(snapshot_path(state, first)));
  }
}

// The loop resolves its svc instruments once per registry: after the
// system's sinks move to another registry, later admissions and snapshots
// count there, and the first registry keeps what it had.
TEST(ServiceLoop, SvcCountersFollowTheSystemRegistry) {
  TempDir dir("registry");
  const wl::Workload workload = make_workload(60, 21);
  const std::size_t half = workload.jobs.size() / 2;

  IngestQueue ingest;
  batch::BatchSystem system(durable_config());
  obs::Registry first;
  obs::Registry second;
  system.set_sinks({nullptr, &first});
  ServiceLoop& service =
      system.attach_ingest(ingest, service_config(dir.sub("state"), 8));
  ASSERT_FALSE(system.open_state());
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    if (i == half) system.set_sinks({nullptr, &second});
    const auto& s = workload.jobs[i];
    ingest.submit(s.at, s.spec, s.behavior);
    service.tick();
  }
  ingest.close();
  while (!service.drained()) service.tick();
  service.finalize();

  const auto counted = [](const obs::Registry& reg, const char* name) {
    const obs::Counter* c = reg.find_counter(name);
    return c == nullptr ? std::uint64_t{0} : c->value();
  };
  EXPECT_EQ(counted(first, "svc.ingest.admitted"), half);
  EXPECT_EQ(counted(second, "svc.ingest.admitted"),
            workload.jobs.size() - half);
  EXPECT_NE(first.find_gauge("svc.ingest.depth"), nullptr);
  EXPECT_NE(second.find_gauge("svc.ingest.depth"), nullptr);
  EXPECT_EQ(counted(first, "svc.snapshots") + counted(second, "svc.snapshots"),
            service.snapshots_written());
  EXPECT_GT(counted(second, "svc.snapshots"), 0u);
}

TEST(ServiceLoop, ColdStartRecoversNothing) {
  TempDir dir("cold");
  const Recovered cold = recover_only(dir.sub("fresh"));
  EXPECT_FALSE(cold.recovered);
  EXPECT_EQ(cold.wal_ingest, 0u);
  EXPECT_EQ(cold.wal_decisions, 0u);
}

}  // namespace
}  // namespace dbs::svc
