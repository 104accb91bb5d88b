// Node-count scaling sweep for the allocation core: 16 / 1k / 16k / 64k
// nodes over the placement kernels the scheduler hits every iteration —
// chunked allocate+release, release_all, held_by and the admission stage's
// can_allocate_chunked what-if probe — plus a full dbsim-style scheduler
// iteration and the cluster invariant check at each size.
//
// Every placement kernel runs twice: against the production index-based
// Cluster (`/indexed`) and against the old scan-based allocator kept
// verbatim in tests/property/reference_allocator.hpp (`/scan`). The scan
// rows ARE the pre-index baseline, recorded in the same results file, so
// the speedup is reproducible from one binary. The invariant check and the
// deep-queue planner likewise run beside the code they replaced
// (`/reference`, `/rebuild`), and bench-smoke gates each by that ratio:
//
//   ./build/bench/bench_scale --benchmark_out=scale.json
//       --benchmark_out_format=json
//   python3 tools/check_bench_regression.py scale.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../tests/property/reference_allocator.hpp"
#include "../tests/property/reference_invariants.hpp"
#include "apps/rigid.hpp"
#include "batch/batch_system.hpp"
#include "bench_common.hpp"
#include "cluster/cluster.hpp"

namespace {

using namespace dbs;

constexpr CoreCount kCoresPerNode = 8;
constexpr std::int64_t kNodeCounts[] = {16, 1024, 16384, 65536};
/// Repetitions of each deep-queue row. A 1k-job dry run takes ~0.1 ms, so
/// one timing of it moves ±20% with the host; the gates read each
/// repeated row's median.
constexpr int kQueueRepetitions = 5;

template <class C>
C make_cluster(std::size_t nodes);

template <>
cluster::Cluster make_cluster(std::size_t nodes) {
  return cluster::Cluster(cluster::ClusterSpec{nodes, kCoresPerNode});
}

template <>
cluster::testing::ReferenceCluster make_cluster(std::size_t nodes) {
  return {nodes, kCoresPerNode};
}

/// Loads the cluster to a steady ~50% occupancy with structure: fill ~75%
/// with FirstFit jobs of a non-node-multiple size (partial nodes at every
/// job boundary populate the mid buckets), then release every third job to
/// scatter free nodes through the id range. Identical placements on both
/// implementations (guaranteed by the differential fuzz suite), so both
/// sides of each kernel pair run against the same occupancy pattern.
/// Returns the surviving (job, placement) pairs.
template <class C>
std::vector<std::pair<JobId, cluster::Placement>> preload(C& c) {
  const auto total = static_cast<std::int64_t>(c.total_cores());
  const auto jobs = static_cast<std::size_t>(
      std::clamp<std::int64_t>(total / 64, 8, 1024));
  auto size = static_cast<CoreCount>(total * 3 / 4 / static_cast<std::int64_t>(jobs));
  if (size > 1 && size % kCoresPerNode == 0) --size;
  size = std::max<CoreCount>(size, 1);

  std::vector<std::pair<JobId, cluster::Placement>> live;
  live.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    auto p = c.allocate(JobId{j}, size, cluster::AllocationPolicy::FirstFit);
    if (!p) break;
    live.emplace_back(JobId{j}, std::move(*p));
  }
  std::vector<std::pair<JobId, cluster::Placement>> kept;
  kept.reserve(live.size());
  for (std::size_t j = 0; j < live.size(); ++j) {
    if (j % 3 == 1)
      c.release(live[j].first, live[j].second);
    else
      kept.push_back(std::move(live[j]));
  }
  return kept;
}

constexpr JobId kProbeJob{1u << 20};

/// Pack-chunked allocation of 8 nodes x 8 ppn plus the symmetric release —
/// the static-job start path.
template <class C>
void bm_alloc_release(benchmark::State& state) {
  C c = make_cluster<C>(static_cast<std::size_t>(state.range(0)));
  (void)preload(c);
  for (auto _ : state) {
    auto p = c.allocate_chunked(kProbeJob, 64, kCoresPerNode,
                                cluster::AllocationPolicy::Pack);
    benchmark::DoNotOptimize(p);
    if (p) c.release(kProbeJob, *p);
  }
}

/// Spread allocation (descending bucket walk) plus release_all through the
/// per-job placement index — the dynamic-grant + job-exit path.
template <class C>
void bm_spread_release_all(benchmark::State& state) {
  C c = make_cluster<C>(static_cast<std::size_t>(state.range(0)));
  (void)preload(c);
  for (auto _ : state) {
    auto p = c.allocate(kProbeJob, 64, cluster::AllocationPolicy::Spread);
    benchmark::DoNotOptimize(p);
    const cluster::Placement freed = c.release_all(kProbeJob);
    benchmark::DoNotOptimize(freed.total_cores());
  }
}

/// held_by on a standing mid-range job — qstat/pbsnodes rendering and the
/// server's accounting queries.
template <class C>
void bm_held_by(benchmark::State& state) {
  C c = make_cluster<C>(static_cast<std::size_t>(state.range(0)));
  const auto live = preload(c);
  const JobId probe = live[live.size() / 2].first;
  for (auto _ : state) benchmark::DoNotOptimize(c.held_by(probe));
}

/// can_allocate_chunked — the what-if probe the dynamic-admission stage
/// issues per request (and PR 3's parallel measurement fan-out multiplies).
template <class C>
void bm_measure_request(benchmark::State& state) {
  C c = make_cluster<C>(static_cast<std::size_t>(state.range(0)));
  (void)preload(c);
  for (auto _ : state)
    benchmark::DoNotOptimize(c.can_allocate_chunked(64, kCoresPerNode));
}

/// A Cluster's four structures rebuilt outside it through the same node
/// hooks, so the one-pass invariant check and the check it replaced
/// (tests/property/reference_invariants.hpp) read one state.
struct ClusterState {
  explicit ClusterState(const cluster::Cluster& c)
      : total_cores(c.total_cores()) {
    nodes.reserve(c.node_count());
    for (const cluster::Node& n : c.nodes())
      nodes.emplace_back(n.id(), n.total_cores());
    free_index.reset(c.node_count(), c.cores_per_node());
    for (cluster::Node& n : nodes)
      n.bind_indexes(&ledger, &free_index, &job_index);
    for (const cluster::Node& n : c.nodes())
      for (const auto& [job, cores] : n.held())
        nodes[n.id().value()].allocate(job, cores);
  }
  ClusterState(const ClusterState&) = delete;
  ClusterState& operator=(const ClusterState&) = delete;

  std::vector<cluster::Node> nodes;
  CoreCount total_cores;
  cluster::CoreLedger ledger;
  cluster::FreeCoreIndex free_index;
  cluster::JobPlacementIndex job_index;
};

/// The cluster invariant check on the preloaded cluster, or (`reference`)
/// the check it replaced on the same state. BatchSystem runs it after
/// every run and run_until: the durable service pays it once per tick, WAL
/// recovery once per logged decision time. It reads every node by design,
/// so it stays outside the indexed kernels' flat-scaling gate.
void bm_check_invariants(benchmark::State& state, bool reference) {
  auto c = make_cluster<cluster::Cluster>(
      static_cast<std::size_t>(state.range(0)));
  (void)preload(c);
  const ClusterState s(c);
  for (auto _ : state) {
    if (reference)
      cluster::testing::reference_check_invariants(
          s.nodes, s.total_cores, s.ledger, s.free_index, s.job_index);
    else
      cluster::check_cluster_invariants(s.nodes, s.total_cores, s.ledger,
                                        s.free_index, s.job_index);
  }
}

rms::JobSpec sized_spec(const char* prefix, int i, CoreCount cores,
                        Duration walltime) {
  rms::JobSpec s;
  s.name = prefix;
  s.name += std::to_string(i);
  s.cred = {"alice", "grp", "", "batch", ""};
  s.cores = cores;
  s.walltime = walltime;
  return s;
}

/// One full dbsim-style scheduler iteration (gather, statistics,
/// prioritize, classify, admission, start/backfill) in dry-run mode at each
/// node count: a running base load plus a queue the planner must reserve
/// around. Workload size is fixed so the sweep isolates the node-count
/// dependence of one iteration.
void bm_sched_iteration(benchmark::State& state) {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = static_cast<std::size_t>(state.range(0));
  cfg.cluster.cores_per_node = kCoresPerNode;
  cfg.scheduler.reservation_depth = 5;
  cfg.scheduler.reservation_delay_depth = 5;
  batch::BatchSystem sys(cfg);
  const CoreCount total = sys.cluster().total_cores();
  for (int i = 0; i < 8; ++i)
    sys.submit_now(
        sized_spec("run", i, std::max<CoreCount>(total / 16, 1),
                   Duration::minutes(90)),
        std::make_unique<apps::RigidApp>(Duration::minutes(60)));
  for (int i = 0; i < 32; ++i)
    sys.submit_now(
        sized_spec("q", i, std::max<CoreCount>(total / 4, 1),
                   Duration::minutes(30)),
        std::make_unique<apps::RigidApp>(Duration::minutes(20)));
  sys.run_until(Time::from_seconds(2));  // base load starts, the rest queues
  for (auto _ : state) {
    const auto decisions = sys.scheduler().dry_run_iteration();
    benchmark::DoNotOptimize(decisions.size());
  }
}

/// Deep-queue iteration sweep: a 1024-node system with a running base
/// load and a 1k/10k/100k-deep queue of mostly-unfitting jobs, measured as
/// dry-run iterations with incremental planning on (`/incremental`) and
/// off (`/rebuild`). The rebuild rows ARE the from-scratch baseline,
/// recorded in the same results file — the speedup is reproducible from
/// one binary, like the /indexed vs /scan allocator pairs above.
///
/// `fragmented` switches the base load from 8 big jobs to 256 small ones
/// with staggered walltimes: the physical profile grows hundreds of
/// breakpoints, the adversarial case for profile patching and staircase
/// rebuilds.
std::unique_ptr<batch::BatchSystem> make_deep_queue(std::size_t depth,
                                                    bool incremental,
                                                    bool fragmented) {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 1024;
  cfg.cluster.cores_per_node = kCoresPerNode;
  cfg.scheduler.reservation_depth = 5;
  cfg.scheduler.reservation_delay_depth = 5;
  cfg.scheduler.incremental_planning = incremental;
  auto sys = std::make_unique<batch::BatchSystem>(cfg);

  // Base running load: 4096 of 8192 cores busy either way.
  if (fragmented) {
    for (int i = 0; i < 256; ++i)
      sys->submit_now(sized_spec("run", i, 16,
                                 Duration::minutes(30 + (i * 7) % 90)),
                      std::make_unique<apps::RigidApp>(
                          Duration::minutes(25 + (i * 7) % 90)));
  } else {
    for (int i = 0; i < 8; ++i)
      sys->submit_now(sized_spec("run", i, 512, Duration::minutes(90)),
                      std::make_unique<apps::RigidApp>(Duration::minutes(60)));
  }
  sys->run_until(Time::from_seconds(2));  // the base load starts

  // The deep queue: bigger than the free 4096 cores (StartLater or skip),
  // with a sprinkle of fit-now jobs so every walk still plans backfills
  // and rebuilds the tail staircase mid-walk.
  for (std::size_t i = 0; i < depth; ++i) {
    const bool tiny = i % 9973 == 0;
    const CoreCount cores =
        tiny ? 2 : static_cast<CoreCount>(4608 + (i % 5) * 512);
    const Duration wall = Duration::minutes(
        tiny ? 5 : static_cast<std::int64_t>(30 + (i % 11) * 5));
    sys->submit_now(sized_spec("q", static_cast<int>(i), cores, wall),
                    std::make_unique<apps::RigidApp>(wall));
  }
  return sys;
}

void bm_queue_depth(benchmark::State& state, bool incremental,
                    bool fragmented) {
  const auto sys = make_deep_queue(static_cast<std::size_t>(state.range(0)),
                                   incremental, fragmented);
  for (auto _ : state) {
    const auto decisions = sys->scheduler().dry_run_iteration();
    benchmark::DoNotOptimize(decisions.size());
  }
}

/// Steady-state churn at depth 100k: every iteration submits 8 jobs,
/// cancels the 8 oldest queued and flips one idle node down/up (<1% of
/// the queue changes), then runs a dry-run iteration — the O(Δ) target
/// case of the incremental planner.
void bm_queue_churn(benchmark::State& state, bool incremental) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const auto sys = make_deep_queue(depth, incremental, /*fragmented=*/false);
  std::vector<JobId> pending;  // FIFO of queued job ids; index eats front
  pending.reserve(depth + 1024);
  for (std::size_t i = 0; i < depth; ++i)
    pending.push_back(JobId{8 + i});  // ids 0..7 are the running base load
  std::size_t head = 0;
  std::size_t next = depth;
  bool node_down = false;
  for (auto _ : state) {
    for (int k = 0; k < 8; ++k) {
      const CoreCount cores = static_cast<CoreCount>(4608 + (next % 5) * 512);
      pending.push_back(sys->submit_now(
          sized_spec("c", static_cast<int>(next), cores, Duration::minutes(30)),
          std::make_unique<apps::RigidApp>(Duration::minutes(30))));
      ++next;
    }
    for (int k = 0; k < 8 && head < pending.size(); ++k)
      sys->server().cancel(pending[head++]);
    if (node_down)
      sys->server().restore_node(NodeId{1023});
    else
      sys->server().node_failure(NodeId{1023});
    node_down = !node_down;
    const auto decisions = sys->scheduler().dry_run_iteration();
    benchmark::DoNotOptimize(decisions.size());
  }
}

template <class C>
void register_kernels(const char* impl) {
  const auto reg = [&](const char* kernel, void (*fn)(benchmark::State&)) {
    auto* b = benchmark::RegisterBenchmark(
        ("bm_scale_" + std::string(kernel) + "/" + impl).c_str(), fn);
    for (const std::int64_t n : kNodeCounts) b->Arg(n);
    b->Unit(benchmark::kMicrosecond);
  };
  reg("alloc_release", bm_alloc_release<C>);
  reg("spread_release_all", bm_spread_release_all<C>);
  reg("held_by", bm_held_by<C>);
  reg("measure_request", bm_measure_request<C>);
}

}  // namespace

int main(int argc, char** argv) {
  register_kernels<dbs::cluster::Cluster>("indexed");
  register_kernels<dbs::cluster::testing::ReferenceCluster>("scan");
  auto* iter = benchmark::RegisterBenchmark("bm_scale_sched_iteration/indexed",
                                            bm_sched_iteration);
  for (const std::int64_t n : kNodeCounts) iter->Arg(n);
  iter->Unit(benchmark::kMillisecond);
  for (const bool reference : {false, true}) {
    auto* check = benchmark::RegisterBenchmark(
        reference ? "bm_scale_check_invariants/reference"
                  : "bm_scale_check_invariants",
        bm_check_invariants, reference);
    for (const std::int64_t n : kNodeCounts) check->Arg(n);
    check->Unit(benchmark::kMicrosecond);
  }

  for (const bool inc : {true, false}) {
    const std::string impl = inc ? "incremental" : "rebuild";
    auto* depth = benchmark::RegisterBenchmark(
        ("bm_scale_queue_depth/" + impl).c_str(), bm_queue_depth, inc,
        /*fragmented=*/false);
    for (const std::int64_t d : {1000, 10000, 100000}) depth->Arg(d);
    depth->Unit(benchmark::kMillisecond)->Repetitions(kQueueRepetitions);

    auto* frag = benchmark::RegisterBenchmark(
        ("bm_scale_queue_frag/" + impl).c_str(), bm_queue_depth, inc,
        /*fragmented=*/true);
    for (const std::int64_t d : {10000, 100000}) frag->Arg(d);
    frag->Unit(benchmark::kMillisecond)->Repetitions(kQueueRepetitions);

    benchmark::RegisterBenchmark(("bm_scale_queue_churn/" + impl).c_str(),
                                 bm_queue_churn, inc)
        ->Arg(100000)
        ->Unit(benchmark::kMillisecond)
        ->Repetitions(kQueueRepetitions);
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dbs::bench::maybe_dump_metrics();
  return 0;
}
