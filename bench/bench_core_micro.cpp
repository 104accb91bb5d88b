// Microbenchmarks of the scheduler-core primitives: availability-profile
// algebra, planning/backfill, prioritization and the DFS admission check.
// The profile kernels also run against the std::map profile the flat one
// replaced (tests/property/reference_profile.hpp), and the keyed priority
// order against the comparator sort it stands in for, in `/reference`
// rows; the tail walk runs with and without its staircase. bench-smoke
// gates each of these kernels by its ratio to its twin.
//
//   ./build/bench/bench_core_micro --benchmark_out=core_micro.json
//       --benchmark_out_format=json
//   python3 tools/check_bench_regression.py core_micro.json
#include <benchmark/benchmark.h>

#include <numeric>

#include "../tests/property/reference_profile.hpp"
#include "apps/rigid.hpp"
#include "common/rng.hpp"
#include "core/backfill.hpp"
#include "core/dfs_engine.hpp"
#include "core/priority.hpp"

namespace {

using namespace dbs;
using core::testing::ReferenceProfile;

template <class Profile>
Profile busy_profile(int holds, std::uint64_t seed) {
  Rng rng(seed);
  Profile p(Time::epoch(), 128);
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

template <class Profile>
void bm_profile_subtract(benchmark::State& state) {
  const int holds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const Profile p = busy_profile<Profile>(holds, 42);
    benchmark::DoNotOptimize(p.free_at(Time::from_seconds(100)));
  }
}
BENCHMARK(bm_profile_subtract<core::AvailabilityProfile>)
    ->Name("bm_profile_subtract")->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(bm_profile_subtract<ReferenceProfile>)
    ->Name("bm_profile_subtract/reference")->Arg(16)->Arg(64)->Arg(256);

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

template <class Profile>
void bm_profile_earliest_fit(benchmark::State& state) {
  const Profile p =
      busy_profile<Profile>(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    const Time t =
        p.earliest_fit(64, Duration::minutes(10), Time::epoch());
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(bm_profile_earliest_fit<core::AvailabilityProfile>)
    ->Name("bm_profile_earliest_fit")->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(bm_profile_earliest_fit<ReferenceProfile>)
    ->Name("bm_profile_earliest_fit/reference")->Arg(16)->Arg(64)->Arg(256);

/// Jobs submitted at the epoch. With `distinct_walltimes` no two share a
/// walltime (300 s, 301 s, ... in shuffled id order); otherwise walltimes
/// are drawn from 5 to 60 minutes.
std::vector<std::unique_ptr<rms::Job>> make_jobs(
    std::size_t count, std::uint64_t seed, bool distinct_walltimes = false) {
  Rng rng(seed);
  std::vector<std::int64_t> distinct_s(count);
  std::iota(distinct_s.begin(), distinct_s.end(), 300);
  Rng(seed + 1).shuffle(distinct_s);
  std::vector<std::unique_ptr<rms::Job>> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    rms::JobSpec spec;
    spec.name = "j" + std::to_string(i);
    spec.cred = {"user" + std::to_string(i % 10), "g", "", "batch", ""};
    spec.cores = static_cast<CoreCount>(1 << rng.next_int(0, 6));
    spec.walltime = distinct_walltimes
                        ? Duration::seconds(distinct_s[i])
                        : Duration::minutes(rng.next_int(5, 60));
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
  const auto base = busy_profile<core::AvailabilityProfile>(32, 42);
  const core::PlanOptions opts{Time::epoch(), 5, true, false};
  for (auto _ : state) {
    const core::Plan plan = core::plan_jobs(jobs, base, opts);
    benchmark::DoNotOptimize(plan.table.size());
  }
}
BENCHMARK(bm_plan_jobs)->Arg(10)->Arg(50)->Arg(200)->Arg(1000);

/// The walk past its reservation budget over a 256-hold profile: with the
/// staircase (`/staircase`, what the scheduler runs) each tail job is one
/// binary search; without it (`/generic`) each runs a full earliest_fit.
template <bool kStaircase>
void bm_plan_tail(benchmark::State& state) {
  const auto storage = make_jobs(static_cast<std::size_t>(state.range(0)), 7);
  std::vector<const rms::Job*> jobs;
  for (const auto& j : storage) jobs.push_back(j.get());
  const auto base = busy_profile<core::AvailabilityProfile>(256, 42);
  const core::PlanOptions opts{Time::epoch(), 5, true, false};
  core::Plan plan;
  core::TailStaircase staircase;
  for (auto _ : state) {
    core::plan_jobs_into(jobs, base, opts, plan,
                         kStaircase ? &staircase : nullptr);
    benchmark::DoNotOptimize(plan.table.size());
  }
}
BENCHMARK(bm_plan_tail<true>)
    ->Name("bm_plan_tail/staircase")->Arg(200)->Arg(1000);
BENCHMARK(bm_plan_tail<false>)
    ->Name("bm_plan_tail/generic")->Arg(200)->Arg(1000);

// All jobs share a submit time, so queue time ties them; the expansion
// factor (queued + walltime) / walltime over distinct walltimes ranks every
// job apart, and the shuffled input gives the sort real work. The plain
// rows run the keyed order the scheduler runs (one priority per job); the
// `/reference` rows run the comparator sort, which evaluates priorities
// inside every comparison.
template <bool kReference>
void bm_prioritize(benchmark::State& state) {
  const auto storage =
      make_jobs(static_cast<std::size_t>(state.range(0)), 7, true);
  std::vector<const rms::Job*> jobs;
  for (const auto& j : storage) jobs.push_back(j.get());
  core::PriorityWeights weights;
  weights.xfactor = 1.0;
  const core::PriorityEngine engine(weights, {}, nullptr);
  const Time now = Time::from_seconds(3600);
  std::vector<const rms::Job*> ordered;
  std::vector<core::PriorityKey> keys;
  for (auto _ : state) {
    if constexpr (kReference) {
      ordered = engine.prioritize(jobs, now);
    } else {
      ordered = jobs;
      benchmark::DoNotOptimize(engine.order(ordered, now, keys));
    }
    benchmark::DoNotOptimize(ordered.data());
  }
}
BENCHMARK(bm_prioritize<false>)->Name("bm_prioritize")->Arg(50)->Arg(500);
BENCHMARK(bm_prioritize<true>)
    ->Name("bm_prioritize/reference")->Arg(50)->Arg(500);

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
