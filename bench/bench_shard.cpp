// Weak-scaling sweep of the sharded scheduler: K shards × per-shard queue
// depth, every shard an identical 16-node × 8-core partition fed the same
// per-shard load (equal-size jobs under least-loaded routing split the
// stream into exact round-robin, so shard k's queue depth is the depth
// argument regardless of K). Two benchmark families:
//
//   * bm_shard_iter/K/DEPTH — builds a ShardedSystem, routes K*DEPTH jobs
//     and runs all shards to completion on K pool threads. Manual time is
//     wall time / K, i.e. the per-shard share of the run: on a multi-core
//     host it falls with K (real speedup); on a single CPU the shards
//     serialize and it stays flat (parity — sharding adds no overhead).
//     Either way the curve across K must be flat-or-falling, which is
//     exactly what bench-smoke gates: K=8 over K=1 at each depth, at
//     1.5x. Counters report the machine-independent aggregates:
//     agg_jobs_per_sec (completed jobs / total wall) and
//     us_per_sched_iter (total wall / scheduler iterations summed over
//     shards).
//
//   * bm_shard_route/K — the router alone: a fixed 2048-job stream pushed
//     through ShardRouter::route at K shards. Routing runs on the single
//     ingest thread; per-job cost grows O(K) with the least-loaded argmin
//     scan, so its gate (K=8 over K=1) allows linear growth and catches
//     worse.
//
//   ./build/bench/bench_shard --benchmark_out=shard.json
//       --benchmark_out_format=json
//   python3 tools/check_bench_regression.py shard.json
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "batch/sharded_system.hpp"
#include "core/shard_map.hpp"
#include "workload/esp.hpp"

namespace {

using namespace dbs;

constexpr std::size_t kNodesPerShard = 16;
constexpr CoreCount kCoresPerNode = 8;

/// `shards * depth` equal-size jobs on a fixed 10s submission cadence.
/// Equal cores per job make the least-loaded router deal them round-robin,
/// so every shard sees exactly `depth` jobs with the same arrival pattern:
/// weak scaling, per-shard load constant as K grows.
wl::Workload shard_workload(std::size_t shards, std::size_t depth) {
  wl::Workload w;
  const std::size_t total = shards * depth;
  for (std::size_t i = 0; i < total; ++i) {
    wl::SubmitSpec s;
    s.at = Time::from_seconds(static_cast<std::int64_t>(i) * 10);
    s.spec.name = "sj" + std::to_string(i);
    s.spec.cred = {"user" + std::to_string(i % 16), "grp", "", "batch", ""};
    s.spec.cores = 8;
    s.spec.walltime = Duration::minutes(30);
    s.behavior.static_runtime =
        Duration::minutes(static_cast<std::int64_t>(5 + (i * 7) % 13));
    w.total_cores += s.spec.cores;
    w.jobs.push_back(std::move(s));
  }
  return w;
}

void bm_shard_iter(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));
  const wl::Workload workload = shard_workload(shards, depth);

  batch::SystemConfig base;
  base.cluster.node_count = kNodesPerShard * shards;
  base.cluster.cores_per_node = kCoresPerNode;

  batch::ShardConfig sc;
  sc.shards = shards;
  sc.map = batch::ShardMapKind::Range;
  sc.policy = core::RoutePolicy::LeastLoaded;
  sc.threads = shards;

  double wall_seconds = 0.0;
  std::uint64_t sched_iters = 0;
  std::uint64_t jobs_done = 0;
  for (auto _ : state) {
    batch::ShardedSystem sys(base, sc);
    sys.submit_workload(workload);
    const auto begin = std::chrono::steady_clock::now();
    sys.run();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    // Per-shard share of the wall: the weak-scaling figure of merit.
    state.SetIterationTime(elapsed / static_cast<double>(shards));
    wall_seconds += elapsed;
    for (std::size_t k = 0; k < shards; ++k)
      sched_iters += sys.shard(k).scheduler().iterations();
    jobs_done += workload.jobs.size();
  }
  if (wall_seconds > 0.0) {
    state.counters["agg_jobs_per_sec"] =
        static_cast<double>(jobs_done) / wall_seconds;
    state.counters["us_per_sched_iter"] =
        wall_seconds * 1e6 / static_cast<double>(sched_iters);
  }
}
BENCHMARK(bm_shard_iter)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{1, 2, 4, 8}, {64, 256}});

void bm_shard_route(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  cluster::ClusterSpec spec;
  spec.node_count = kNodesPerShard * shards;
  spec.cores_per_node = kCoresPerNode;
  const core::ShardMap map = core::ShardMap::by_range(spec, shards);
  // Fixed total stream: K only changes the argmin scan, not the job count.
  const wl::Workload workload = shard_workload(1, 2048);
  for (auto _ : state) {
    core::ShardRouter router(map, core::RoutePolicy::LeastLoaded);
    std::uint64_t acc = 0;
    for (const auto& j : workload.jobs) acc += router.route(j.spec);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.jobs.size()));
}
BENCHMARK(bm_shard_route)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
