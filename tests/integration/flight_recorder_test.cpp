// Flight-recorder end-to-end: a recorded run round-trips through the
// binary store — per-job index lookups return the full decision history,
// the decision stream verifies byte-for-byte against the JSONL trace of
// the same run, summary totals agree with the metrics registry, a sharded
// run writes one indexed file per shard, and the time-series fold produces
// the utilization and per-user delay curves.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "batch/sharded_system.hpp"
#include "metrics/timeseries.hpp"
#include "obs/recorder/manifest.hpp"
#include "obs/recorder/query.hpp"
#include "obs/recorder/reader.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace dbs::batch {
namespace {

namespace rec = obs::rec;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "flight_recorder_" + name;
}

SystemConfig base_config() {
  SystemConfig c;
  c.cluster.node_count = 4;
  c.cluster.cores_per_node = 8;
  c.latency = rms::LatencyModel::zero();
  c.scheduler.reservation_depth = 5;
  c.scheduler.reservation_delay_depth = 5;
  return c;
}

/// Blocker + evolving grower + queued victim (the fairness scenario):
/// produces starts, backfills, a dynamic request, a DFS verdict and real
/// queueing delay for the victim's user.
void submit_scenario(BatchSystem& sys) {
  sys.submit_now(test::spec("blocker", 8, Duration::minutes(5), "bob"),
                 test::rigid(Duration::minutes(5)));
  auto app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(20),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(2), 8, 0, 1.0, Duration::zero()}});
  sys.submit_now(test::spec("evo", 16, Duration::minutes(20), "eve"),
                 std::move(app));
  sys.submit_at(Time::epoch() + Duration::minutes(1),
                test::spec("victim", 16, Duration::minutes(10), "victim"),
                [] { return test::rigid(Duration::minutes(10)); });
}

struct RecordedRun {
  std::string record_path;
  std::string trace_path;
  obs::Registry registry;
};

/// Runs the scenario once with tracer + recorder attached.
std::unique_ptr<RecordedRun> record_run(const std::string& tag) {
  auto run = std::make_unique<RecordedRun>();
  run->record_path = temp_path(tag + ".dbsr");
  run->trace_path = temp_path(tag + ".jsonl");

  SystemConfig cfg = base_config();
  cfg.scheduler.dfs.policy = core::DfsPolicy::TargetDelay;
  cfg.scheduler.dfs.defaults.target_delay = Duration::minutes(10);
  BatchSystem sys(cfg);

  obs::Tracer tracer;
  EXPECT_TRUE(tracer.open(run->trace_path, obs::TraceFormat::Jsonl));
  rec::FlightRecorder recorder;
  EXPECT_TRUE(recorder.open(run->record_path, 32));
  sys.set_sinks({&tracer, &run->registry, &recorder});
  submit_scenario(sys);
  sys.run();
  tracer.close();
  EXPECT_TRUE(recorder.finalize());
  return run;
}

TEST(FlightRecorder, SummaryTotalsMatchRegistryCounters) {
  auto run = record_run("summary");
  rec::RecordReader reader;
  ASSERT_TRUE(reader.open(run->record_path)) << reader.error();

  const rec::Summary s = rec::summarize(reader);
  EXPECT_EQ(s.record_count, reader.record_count());
  EXPECT_GT(s.decision_records, 0u);
  EXPECT_EQ(s.capacity, 32);

  const auto counter = [&](const char* name) {
    const obs::Counter* c = run->registry.find_counter(name);
    return c == nullptr ? 0u : c->value();
  };
  EXPECT_EQ(s.count(rec::RecordType::Submit), counter("server.jobs_submitted"));
  EXPECT_EQ(s.count(rec::RecordType::Start), counter("server.jobs_started"));
  EXPECT_EQ(s.count(rec::RecordType::Finish), counter("server.jobs_finished"));
  EXPECT_EQ(s.count(rec::RecordType::DynRequest), counter("dyn.requests"));
  EXPECT_EQ(s.count(rec::RecordType::DynGrant), counter("dyn.grants"));
  EXPECT_EQ(s.count(rec::RecordType::DynReject), counter("dyn.rejects"));

  std::remove(run->record_path.c_str());
  std::remove(run->trace_path.c_str());
}

TEST(FlightRecorder, DecisionStreamVerifiesAgainstJsonlTrace) {
  auto run = record_run("verify");
  rec::RecordReader reader;
  ASSERT_TRUE(reader.open(run->record_path)) << reader.error();

  const rec::VerifyResult result =
      rec::verify_against_trace(reader, run->trace_path);
  EXPECT_GT(result.compared, 0u);
  EXPECT_TRUE(result.ok());
  for (const std::string& m : result.mismatches) ADD_FAILURE() << m;

  std::remove(run->record_path.c_str());
  std::remove(run->trace_path.c_str());
}

TEST(FlightRecorder, JobIndexMatchesFullScanAndCarriesDecisions) {
  auto run = record_run("jobindex");
  rec::RecordReader reader;
  ASSERT_TRUE(reader.open(run->record_path)) << reader.error();

  const std::vector<std::uint64_t> jobs = reader.jobs();
  ASSERT_FALSE(jobs.empty());
  for (const std::uint64_t job : jobs) {
    std::vector<rec::PackedRecord> scanned;
    reader.scan_all([&](const rec::PackedRecord& r) {
      if (r.job == job || (r.other == job && r.other != r.job))
        scanned.push_back(r);
    });
    const std::vector<rec::PackedRecord> indexed = reader.for_job(job);
    ASSERT_EQ(indexed.size(), scanned.size()) << "job " << job;
    for (std::size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(indexed[i].t_us, scanned[i].t_us);
      EXPECT_EQ(indexed[i].type, scanned[i].type);
    }
  }

  // Every started job's history interleaves lifecycle and decision lines,
  // and the decision lines round-trip through rms::decision_to_json.
  bool saw_decision_line = false;
  for (const std::uint64_t job : jobs) {
    for (const rec::JobHistoryLine& line : rec::job_history(reader, job)) {
      if (!line.is_decision) continue;
      saw_decision_line = true;
      EXPECT_NE(line.json.find("\"kind\": "), std::string::npos) << line.json;
      EXPECT_NE(line.json.find("\"applied\": "), std::string::npos)
          << line.json;
    }
  }
  EXPECT_TRUE(saw_decision_line);

  std::remove(run->record_path.c_str());
  std::remove(run->trace_path.c_str());
}

TEST(FlightRecorder, ShardedRunWritesOneIndexedFilePerShard) {
  const std::string base = temp_path("shards.dbsr");
  constexpr std::size_t kShards = 3;

  // Each shard records its own file, wired the way `dbsim --shards
  // --record-out` wires it.
  SystemConfig cfg = base_config();
  cfg.cluster.node_count = 6;  // 2 nodes x 8 cores per shard
  ShardConfig shard_config;
  shard_config.shards = kShards;
  shard_config.policy = core::RoutePolicy::LeastLoaded;  // every shard works
  shard_config.threads = 2;
  ShardedSystem sharded(cfg, shard_config);
  std::vector<std::unique_ptr<rec::FlightRecorder>> recorders;
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < kShards; ++k) {
    recorders.push_back(std::make_unique<rec::FlightRecorder>());
    paths.push_back(rec::shard_path(base, k));
    ASSERT_TRUE(recorders.back()->open(paths.back(), 48));
    sharded.set_shard_sinks(k, nullptr, recorders.back().get());
  }
  wl::Workload workload;
  for (int i = 0; i < 36; ++i) {
    wl::SubmitSpec s;
    s.at = Time::from_seconds(i * 30);
    s.spec = test::spec("job" + std::to_string(i), 4 + 4 * (i % 3),
                        Duration::minutes(20), "user" + std::to_string(i % 9));
    s.behavior.static_runtime = Duration::minutes(5 + i % 7);
    workload.jobs.push_back(std::move(s));
  }
  sharded.submit_workload(workload);
  sharded.run();
  obs::Registry merged;
  sharded.merge_registries(merged);

  EXPECT_EQ(paths[0], base);
  EXPECT_EQ(paths[1], base + ".rep1");
  EXPECT_EQ(paths[2], base + ".rep2");

  // Every shard is a valid, indexed file holding its own shard's jobs;
  // summary totals across shards match the merged registry exactly.
  std::uint64_t submits = 0, starts = 0, finishes = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    const std::uint64_t written = recorders[k]->records_written();
    ASSERT_TRUE(recorders[k]->finalize());
    rec::RecordReader reader;
    ASSERT_TRUE(reader.open(paths[k])) << reader.error();
    EXPECT_EQ(reader.record_count(), written);
    EXPECT_EQ(reader.jobs().size(), sharded.router().routed_jobs(k));
    const rec::Summary s = rec::summarize(reader);
    EXPECT_EQ(s.count(rec::RecordType::Submit),
              sharded.router().routed_jobs(k));
    submits += s.count(rec::RecordType::Submit);
    starts += s.count(rec::RecordType::Start);
    finishes += s.count(rec::RecordType::Finish);
  }
  EXPECT_EQ(submits, workload.jobs.size());
  EXPECT_EQ(submits, merged.find_counter("server.jobs_submitted")->value());
  EXPECT_EQ(starts, merged.find_counter("server.jobs_started")->value());
  EXPECT_EQ(finishes, merged.find_counter("server.jobs_finished")->value());

  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(FlightRecorder, TimeseriesCurvesFromRecordedRun) {
  auto run = record_run("timeseries");
  rec::RecordReader reader;
  ASSERT_TRUE(reader.open(run->record_path)) << reader.error();

  metrics::TimeseriesOptions options;
  options.bucket_s = 60;
  const metrics::Timeseries ts = metrics::fold_timeseries(reader, options);
  ASSERT_FALSE(ts.buckets.empty());
  EXPECT_EQ(ts.capacity, 32);

  // Utilization is a real fraction, and the busy opening minute (24 of 32
  // cores running) is reflected in the first bucket.
  for (const metrics::TimeseriesBucket& b : ts.buckets) {
    EXPECT_GE(b.utilization, 0.0);
    EXPECT_LE(b.utilization, 1.0);
    // Per-user usage partitions total usage.
    double user_sum = 0.0;
    for (const auto& [user, usage] : b.user_usage_core_s) user_sum += usage;
    EXPECT_NEAR(user_sum, b.used_core_s, 1e-6);
  }
  EXPECT_GT(ts.buckets.front().utilization, 0.5);

  // The victim queues behind the evolving job, so its user accumulates
  // waiting time; the cumulative curve is monotone.
  const metrics::TimeseriesBucket& last = ts.buckets.back();
  ASSERT_TRUE(last.user_cum_delay_s.count("victim"));
  EXPECT_GT(last.user_cum_delay_s.at("victim"), 0.0);
  double prev = 0.0;
  for (const metrics::TimeseriesBucket& b : ts.buckets) {
    const auto it = b.user_cum_delay_s.find("victim");
    const double cum = it == b.user_cum_delay_s.end() ? 0.0 : it->second;
    EXPECT_GE(cum, prev);
    prev = cum;
  }

  std::remove(run->record_path.c_str());
  std::remove(run->trace_path.c_str());
}

}  // namespace
}  // namespace dbs::batch
