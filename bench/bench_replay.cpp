// Streaming replay throughput: full simulated replays of synthetic SWF
// traces at 100k / 1M / 10M jobs, with job retirement and streaming
// metrics on — the bounded-memory configuration dbsim uses for --swf.
//
// The trace is produced in-bench by SwfGenStream (lazily, O(1) memory —
// the 10M trace would be ~600 MB of text), so the numbers measure the
// parse + submit + schedule + retire pipeline, not disk I/O. Each scale
// runs exactly once with manual timing, and SetIterationTime records the
// *per-job* wall time: check_bench_regression.py's --max-scaling then
// gates jobs/sec staying flat as the trace grows 100x. The peak_rss_mb
// counter is the bounded-memory gate — VmHWM is monotonic within a
// process, so scales are registered ascending and the 10M row's reading
// may not exceed ~2x the 1M row's if retirement really holds memory at
// O(active + window).
//
//   ./build/bench/bench_replay --benchmark_out=replay.json
//       --benchmark_out_format=json
//   python3 tools/check_bench_regression.py
//       bench/results/BENCH_2026-10-17_replay.json replay.json
//       --max-scaling 2.0
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "batch/batch_system.hpp"
#include "bench_common.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace {

using namespace dbs;

/// Peak resident set (MiB): VmHWM from /proc/self/status, falling back to
/// getrusage. Monotonic for the process lifetime — callers that compare
/// readings across runs must order the runs ascending by expected peak.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

/// One full replay: generate-on-the-fly trace -> SwfSource -> streaming
/// submission into a 128-node (1024-core, the generator's MaxProcs)
/// system with retirement + streaming metrics, run to completion. The 1%
/// evolving overlay keeps the dynamic-admission stage on the hot path
/// without turning the replay into an ESP experiment.
void bm_replay_stream(benchmark::State& state) {
  const auto jobs = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    wl::swf::SwfGenParams gen;
    gen.jobs = jobs;
    gen.seed = 42;
    wl::swf::SwfGenStream trace(gen);

    wl::swf::SwfSourceConfig src_config;
    src_config.overlay_dynamic_fraction = 0.01;
    wl::swf::SwfSource source(trace, src_config);
    const wl::swf::SwfHeader& header = source.header();

    batch::SystemConfig config;
    const auto total = static_cast<CoreCount>(header.max_procs);
    config.cluster.cores_per_node = 8;
    config.cluster.node_count = static_cast<std::size_t>(
        (total + config.cluster.cores_per_node - 1) /
        config.cluster.cores_per_node);
    config.retire_finished_jobs = true;
    config.streaming_metrics = true;
    batch::BatchSystem system(config);
    source.set_max_cores(system.cluster().total_cores());

    const auto begin = std::chrono::steady_clock::now();
    system.submit_stream(source, /*window=*/1024);
    system.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - begin;

    const auto summary = metrics::summarize(system.recorder());
    if (summary.jobs_completed != source.yielded())
      state.SkipWithError("replay lost jobs");
    state.SetIterationTime(elapsed.count() / static_cast<double>(jobs));
    state.counters["jobs_per_sec"] =
        static_cast<double>(jobs) / elapsed.count();
    state.counters["peak_rss_mb"] = peak_rss_mb();
    state.counters["retired"] =
        static_cast<double>(system.server().jobs().retired_count());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Ascending scales: VmHWM is a high-water mark, so each row's
  // peak_rss_mb must be dominated by its own replay, not a bigger earlier
  // one.
  benchmark::RegisterBenchmark("bm_replay_stream", bm_replay_stream)
      ->Arg(100000)
      ->Arg(1000000)
      ->Arg(10000000)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dbs::bench::maybe_dump_metrics();
  return 0;
}
