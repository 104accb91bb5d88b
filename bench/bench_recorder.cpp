// Flight-recorder overhead: the fig. 12 evaluation machine (128 cores,
// both depths 5) running the ESP evolving workload with the recorder
// attached vs detached. bench-smoke gates the record-on run by its ratio
// to the record-off run: it covers the capture path, every record's
// append and the file's finalize.
//
//   ./build/bench/bench_recorder --benchmark_out=recorder.json
//       --benchmark_out_format=json
//   python3 tools/check_bench_regression.py recorder.json
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "batch/batch_system.hpp"
#include "batch/esp_experiment.hpp"
#include "bench_common.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"
#include "workload/esp.hpp"

namespace {

using namespace dbs;

const char* kRecordPath = "bench_recorder.tmp.dbsr";

/// One Dyn-HP ESP run (the workload every Table II/fig. 12 row shares),
/// optionally recorded. state.range(0): 0 = record off, 1 = record on.
void bm_esp_run(benchmark::State& state) {
  const bool record = state.range(0) != 0;
  const batch::EspExperimentParams params = bench::paper_esp_params();
  wl::EspParams wl_params = params.workload;
  wl_params.evolving_enabled = true;
  const wl::Workload workload = wl::generate_esp(wl_params);
  const batch::SystemConfig config =
      batch::esp_system_config(params, batch::EspConfig::DynHP);

  std::uint64_t records = 0;
  for (auto _ : state) {
    obs::Registry registry;
    obs::rec::FlightRecorder recorder;
    if (record)
      recorder.open(kRecordPath, params.workload.total_cores);
    batch::BatchSystem system(config);
    system.set_sinks({nullptr, &registry, record ? &recorder : nullptr});
    system.submit_workload(workload);
    system.run();
    if (record) {
      records = recorder.records_written();
      recorder.finalize();
    }
    benchmark::DoNotOptimize(system.scheduler().iterations());
  }
  state.SetLabel(record ? std::to_string(records) + " records/run"
                        : "recorder detached");
  std::remove(kRecordPath);
}
BENCHMARK(bm_esp_run)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dbs::bench::maybe_dump_metrics();
  return 0;
}
