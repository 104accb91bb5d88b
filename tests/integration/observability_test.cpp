// End-to-end observability: a run with tracing attached must produce a
// decision-audit trail — every dynamic grant/reject event carrying the
// per-protected-job measured delays and the DFS verdict — plus a metrics
// snapshot with populated iteration histograms.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../obs/json_check.hpp"
#include "../testutil.hpp"
#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace dbs::batch {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

bool has_field(const std::string& line, const std::string& key,
               const std::string& value) {
  return line.find("\"" + key + "\": " + value) != std::string::npos;
}

bool is_event(const std::string& line, const std::string& cat,
              const std::string& name) {
  return has_field(line, "cat", "\"" + cat + "\"") &&
         has_field(line, "name", "\"" + name + "\"");
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

/// The fairness_end_to_end "delayed victim" scenario: blocker (8c, 5 min) +
/// evolver (16c, 20 min walltime, asks +8 at 2 min) + victim (16c, queued
/// at 1 min). The grab would delay the victim by 15 minutes — more than
/// the 10-minute target budget, so the DFS policy rejects it.
struct Scenario {
  std::unique_ptr<BatchSystem> sys;
  JobId evolver;
};

Scenario build_denied_scenario() {
  SystemConfig cfg = base_config();
  cfg.scheduler.dfs.policy = core::DfsPolicy::TargetDelay;
  cfg.scheduler.dfs.defaults.target_delay = Duration::minutes(10);
  cfg.scheduler.dfs.interval = Duration::hours(1);
  Scenario s;
  s.sys = std::make_unique<BatchSystem>(cfg);
  s.sys->submit_now(test::spec("blocker", 8, Duration::minutes(5), "bob"),
                    test::rigid(Duration::minutes(5)));
  auto app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(20),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(2), 8, 0, 1.0, Duration::zero()}});
  s.evolver = s.sys->submit_now(test::spec("evo", 16, Duration::minutes(20)),
                                std::move(app));
  s.sys->submit_at(Time::epoch() + Duration::minutes(1),
                   test::spec("victim", 16, Duration::minutes(10), "victim"),
                   [] { return test::rigid(Duration::minutes(10)); });
  return s;
}

TEST(Observability, DynRejectAuditNamesViolatedRuleAndDelays) {
  Scenario s = build_denied_scenario();
  std::ostringstream trace;
  obs::Tracer tracer;
  tracer.attach_stream(trace, obs::TraceFormat::Jsonl);
  obs::Registry registry;
  s.sys->set_sinks({&tracer, &registry});
  s.sys->run();
  tracer.close();

  // The request really was denied by the fairness policy.
  ASSERT_EQ(s.sys->recorder().record(s.evolver).dyn_grants, 0);

  const std::vector<std::string> lines = lines_of(trace.str());
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines)
    ASSERT_TRUE(test::json::is_valid(line)) << line;

  // The scheduler's dyn_reject audit event names the violated DFS rule and
  // carries the measured per-protected-job delays (the 15-minute = 900 s
  // push of the victim job).
  bool found_reject = false;
  for (const std::string& line : lines) {
    if (!is_event(line, "sched", "dyn_reject")) continue;
    found_reject = true;
    EXPECT_TRUE(has_field(line, "verdict", "\"denied-target-delay\"")) << line;
    EXPECT_TRUE(has_field(line, "reason", "\"denied-target-delay\"")) << line;
    EXPECT_NE(line.find("\"delays\": ["), std::string::npos) << line;
    EXPECT_NE(line.find("\"user\": \"victim\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"delay_s\": 900"), std::string::npos) << line;
  }
  EXPECT_TRUE(found_reject);

  // The DFS engine's own admit event agrees.
  bool found_admit = false;
  for (const std::string& line : lines) {
    if (!is_event(line, "dfs", "admit")) continue;
    if (!has_field(line, "verdict", "\"denied-target-delay\"")) continue;
    found_admit = true;
  }
  EXPECT_TRUE(found_admit);

  // Measurement events precede the decision.
  bool found_measure = false;
  for (const std::string& line : lines)
    found_measure = found_measure || is_event(line, "sched", "measure");
  EXPECT_TRUE(found_measure);

  // Registry: iteration latency histogram populated, verdict counted.
  const obs::Histogram* iter_us =
      registry.find_histogram("scheduler.iteration_us");
  ASSERT_NE(iter_us, nullptr);
  EXPECT_GT(iter_us->count(), 0u);
  ASSERT_NE(registry.find_counter("dfs.denied_target_delay"), nullptr);
  EXPECT_GT(registry.find_counter("dfs.denied_target_delay")->value(), 0u);
  ASSERT_NE(registry.find_counter("dyn.rejects"), nullptr);
  EXPECT_GT(registry.find_counter("dyn.rejects")->value(), 0u);

  // The per-iteration history retained by the scheduler matches the
  // iteration counter.
  EXPECT_EQ(s.sys->scheduler().history().size(),
            registry.find_counter("scheduler.iterations")->value());
  // The metrics snapshot itself is valid JSON.
  EXPECT_TRUE(test::json::is_valid(registry.to_json()));
}

TEST(Observability, GrantAuditCarriesDelaysAndProtocolEvents) {
  // Same scenario with a generous budget: the grab is granted, the victim
  // genuinely delayed, and the grant audit event carries the delays.
  SystemConfig cfg = base_config();
  cfg.scheduler.dfs.policy = core::DfsPolicy::TargetDelay;
  cfg.scheduler.dfs.defaults.target_delay = Duration::minutes(20);
  Scenario s;
  s.sys = std::make_unique<BatchSystem>(cfg);
  s.sys->submit_now(test::spec("blocker", 8, Duration::minutes(5), "bob"),
                    test::rigid(Duration::minutes(5)));
  auto app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(20),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(2), 8, 0, 1.0, Duration::zero()}});
  s.evolver = s.sys->submit_now(test::spec("evo", 16, Duration::minutes(20)),
                                std::move(app));
  s.sys->submit_at(Time::epoch() + Duration::minutes(1),
                   test::spec("victim", 16, Duration::minutes(10), "victim"),
                   [] { return test::rigid(Duration::minutes(10)); });

  std::ostringstream trace;
  obs::Tracer tracer;
  tracer.attach_stream(trace, obs::TraceFormat::Jsonl);
  obs::Registry registry;
  s.sys->set_sinks({&tracer, &registry});
  s.sys->run();
  tracer.close();

  ASSERT_EQ(s.sys->recorder().record(s.evolver).dyn_grants, 1);

  const std::vector<std::string> lines = lines_of(trace.str());
  bool found_grant = false;
  for (const std::string& line : lines) {
    if (!is_event(line, "sched", "dyn_grant")) continue;
    found_grant = true;
    EXPECT_TRUE(has_field(line, "verdict", "\"allowed\"")) << line;
    EXPECT_NE(line.find("\"delays\": ["), std::string::npos) << line;
    EXPECT_NE(line.find("\"user\": \"victim\""), std::string::npos) << line;
  }
  EXPECT_TRUE(found_grant);

  // The commit charge and the mom-side dyn_join protocol step both show up.
  bool found_commit = false, found_dyn_join = false, found_classify = false;
  for (const std::string& line : lines) {
    found_commit = found_commit || is_event(line, "dfs", "commit");
    found_dyn_join = found_dyn_join || is_event(line, "mom", "dyn_join");
    found_classify = found_classify || is_event(line, "sched", "classify");
  }
  EXPECT_TRUE(found_commit);
  EXPECT_TRUE(found_dyn_join);
  EXPECT_TRUE(found_classify);
  EXPECT_GT(registry.find_counter("mom.dyn_joins")->value(), 0u);
}

TEST(Observability, DetachedTracerChangesNothing) {
  // The same denied scenario run bare must behave identically — tracing is
  // observation only (and compiled out to a pointer test when detached).
  Scenario bare = build_denied_scenario();
  bare.sys->run();
  Scenario traced = build_denied_scenario();
  std::ostringstream trace;
  obs::Tracer tracer;
  tracer.attach_stream(trace, obs::TraceFormat::Jsonl);
  obs::Registry registry;
  traced.sys->set_sinks({&tracer, &registry});
  traced.sys->run();

  EXPECT_EQ(bare.sys->recorder().record(bare.evolver).dyn_grants,
            traced.sys->recorder().record(traced.evolver).dyn_grants);
  EXPECT_EQ(bare.sys->simulator().now(), traced.sys->simulator().now());
  EXPECT_EQ(bare.sys->scheduler().iterations(),
            traced.sys->scheduler().iterations());
}

}  // namespace
}  // namespace dbs::batch
