// Microbenchmarks of the scheduler-core primitives: availability-profile
// algebra, planning/backfill, prioritization and the DFS admission check.
#include <benchmark/benchmark.h>

#include "apps/rigid.hpp"
#include "common/rng.hpp"
#include "core/backfill.hpp"
#include "core/dfs_engine.hpp"
#include "core/priority.hpp"

namespace {

using namespace dbs;

core::AvailabilityProfile busy_profile(int holds, std::uint64_t seed) {
  Rng rng(seed);
  core::AvailabilityProfile p(Time::epoch(), 128);
  for (int i = 0; i < holds; ++i) {
    const auto from = rng.next_int(0, 5000);
    const auto len = rng.next_int(60, 1800);
    const auto cores = static_cast<CoreCount>(rng.next_int(1, 16));
    if (p.min_free(Time::from_seconds(from), Time::from_seconds(from + len)) >=
        cores)
      p.subtract(Time::from_seconds(from), Time::from_seconds(from + len),
                 cores);
  }
  return p;
}

void bm_profile_subtract(benchmark::State& state) {
  for (auto _ : state) {
    core::AvailabilityProfile p =
        busy_profile(static_cast<int>(state.range(0)), 42);
    benchmark::DoNotOptimize(p.free_at(Time::from_seconds(100)));
  }
}
BENCHMARK(bm_profile_subtract)->Arg(16)->Arg(64)->Arg(256);

/// Holds appended at strictly increasing times — the PhysicalProfileTracker
/// steady state, where every new hold starts at or after the last
/// breakpoint. Hits the subtract append-at-end fast path; compare against
/// bm_profile_subtract (random placement, generic splice) at equal counts.
void bm_profile_subtract_append(benchmark::State& state) {
  const int holds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::AvailabilityProfile p(Time::epoch(), 128);
    for (int i = 0; i < holds; ++i)
      p.subtract(Time::from_seconds(i * 700),
                 Time::from_seconds(i * 700 + 600),
                 static_cast<CoreCount>(1 + i % 16));
    benchmark::DoNotOptimize(p.free_at(Time::from_seconds(100)));
  }
}
BENCHMARK(bm_profile_subtract_append)->Arg(16)->Arg(64)->Arg(256);

void bm_profile_earliest_fit(benchmark::State& state) {
  const core::AvailabilityProfile p =
      busy_profile(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    const Time t =
        p.earliest_fit(64, Duration::minutes(10), Time::epoch());
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(bm_profile_earliest_fit)->Arg(16)->Arg(64)->Arg(256);

std::vector<std::unique_ptr<rms::Job>> make_jobs(std::size_t count,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<rms::Job>> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    rms::JobSpec spec;
    spec.name = "j" + std::to_string(i);
    spec.cred = {"user" + std::to_string(i % 10), "g", "", "batch", ""};
    spec.cores = static_cast<CoreCount>(1 << rng.next_int(0, 6));
    spec.walltime = Duration::minutes(rng.next_int(5, 60));
    jobs.push_back(std::make_unique<rms::Job>(
        JobId{i}, spec,
        std::make_unique<apps::RigidApp>(Duration::minutes(5)),
        Time::epoch()));
  }
  return jobs;
}

void bm_plan_jobs(benchmark::State& state) {
  const auto storage = make_jobs(static_cast<std::size_t>(state.range(0)), 7);
  std::vector<const rms::Job*> jobs;
  for (const auto& j : storage) jobs.push_back(j.get());
  const core::AvailabilityProfile base = busy_profile(32, 42);
  const core::PlanOptions opts{Time::epoch(), 5, true, false};
  for (auto _ : state) {
    const core::Plan plan = core::plan_jobs(jobs, base, opts);
    benchmark::DoNotOptimize(plan.table.size());
  }
}
BENCHMARK(bm_plan_jobs)->Arg(10)->Arg(50)->Arg(200);

void bm_prioritize(benchmark::State& state) {
  const auto storage = make_jobs(static_cast<std::size_t>(state.range(0)), 7);
  std::vector<const rms::Job*> jobs;
  for (const auto& j : storage) jobs.push_back(j.get());
  const core::PriorityEngine engine({}, {}, nullptr);
  for (auto _ : state) {
    auto sorted = engine.prioritize(jobs, Time::from_seconds(3600));
    benchmark::DoNotOptimize(sorted.data());
  }
}
BENCHMARK(bm_prioritize)->Arg(50)->Arg(500);

void bm_dfs_admit(benchmark::State& state) {
  const auto storage = make_jobs(static_cast<std::size_t>(state.range(0)), 7);
  core::DfsConfig cfg;
  cfg.policy = core::DfsPolicy::SingleAndTargetDelay;
  cfg.defaults.target_delay = Duration::hours(1);
  cfg.defaults.single_delay = Duration::minutes(10);
  core::DfsEngine engine(cfg);
  std::vector<core::DelayedJob> delays;
  Rng rng(3);
  for (const auto& j : storage)
    delays.push_back({j.get(), Duration::seconds(rng.next_int(0, 600))});
  const Credentials requester{"evolver", "", "", "", ""};
  for (auto _ : state) {
    const auto verdict = engine.admit(requester, delays);
    benchmark::DoNotOptimize(verdict);
  }
}
BENCHMARK(bm_dfs_admit)->Arg(5)->Arg(20)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
