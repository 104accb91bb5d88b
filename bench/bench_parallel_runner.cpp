// Wall-clock benchmark of the multi-replication experiment runner: an ESP
// seed sweep (replication_seed-derived workload seeds) executed serially
// (jobs=1) and on 4 threads (jobs=4).
//
// The jobs=1 and jobs=4 runs produce bit-identical results and merged
// metrics (verified by tests/exec/parallel_determinism_test.cpp); this
// bench quantifies the wall-clock ratio between them. Speedup scales with
// the machine's core count — on a single-core host both take the same
// time.
#include <benchmark/benchmark.h>

#include "batch/parallel_runner.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"

namespace {

using namespace dbs;

constexpr std::uint64_t kBaseSeed = 2014;

/// One small-but-real ESP replication: the paper's machine at 1/4 job scale
/// so a multi-replication sweep finishes in benchmark time.
batch::EspExperimentParams sweep_params(std::uint64_t seed) {
  batch::EspExperimentParams params;
  params.workload.seed = seed;
  return params;
}

/// A `replications`-point seed sweep of the Dyn-600 ESP run on `jobs`
/// threads. Each replication owns its full world (simulator, cluster,
/// registry); the merge is deterministic by replication index.
void bm_esp_seed_sweep(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto replications = static_cast<std::size_t>(state.range(1));
  std::size_t satisfied = 0;
  for (auto _ : state) {
    batch::ParallelRunner runner(jobs);
    obs::Registry merged;
    const std::vector<batch::RunResult> results =
        runner.map<batch::RunResult>(
            replications,
            [&](std::size_t index, obs::Registry& registry) {
              return batch::run_esp(
                  sweep_params(replication_seed(kBaseSeed, index)),
                  batch::EspConfig::Dyn600, &registry);
            },
            &merged);
    satisfied = 0;
    for (const batch::RunResult& r : results)
      satisfied += r.summary.satisfied_dyn_jobs;
    benchmark::DoNotOptimize(satisfied);
  }
  state.SetLabel(std::to_string(replications) + " replications on " +
                 std::to_string(jobs) + " thread(s), satisfied=" +
                 std::to_string(satisfied));
}

}  // namespace

BENCHMARK(bm_esp_seed_sweep)
    ->Args({1, 8})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dbs::bench::maybe_dump_metrics();
  return 0;
}
