// Concurrent-ingest throughput: N producer threads push submissions
// through the one-lock IngestQueue while one consumer drains whole chunks
// once depth() shows records queued, stamps admissions (the service
// loop's monotone rule) and — in the WAL-on rows — appends + fsyncs every
// drained batch through a WalWriter. The consumer
// re-implements that part of ServiceLoop::admit_pending rather than
// calling it, so a slower IngestQueue or WalWriter shows here, a change to
// the loop itself does not (perfbench's service_durable runs the loop).
// The sweep crosses producers {1, 4, 16} with WAL {off, on}:
//
//   * producer scaling shows what the queue's one mutex costs as pushes
//     and drains contend for it, and
//   * the WAL-on/off gap is the durability tax — one fsync per drained
//     batch, so it shrinks as batches grow under load.
//
// bm_ingest_push runs 1 and 16 producers with no consumer: the push path
// alone under contention, which the consumer's rate hides in the sweep.
// Its /reference row is one producer pushing the same records into a bare
// mutex-guarded vector: the floor a single push can reach.
//
// bench-smoke gates producers:16 / producers:1 in both families,
// producers:1 / reference for the push path (one lock serializes 1 and 16
// producers alike, so a constant cost per push shows only against the
// reference) and wal:1 / wal:0.
//
//   ./build/bench/bench_ingest --benchmark_out=ingest.json
//       --benchmark_out_format=json
//   python3 tools/check_bench_regression.py ingest.json
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/time.hpp"
#include "rms/job.hpp"
#include "svc/ingest.hpp"
#include "svc/state_store.hpp"
#include "workload/esp.hpp"

namespace {

using namespace dbs;

constexpr std::uint64_t kRecords = 200000;

rms::JobSpec bench_spec() {
  rms::JobSpec s;
  s.name = "ingest_bench";
  s.cred = {"user", "grp", "", "batch", ""};
  s.cores = 8;
  s.walltime = Duration::seconds(3600);
  return s;
}

void bm_ingest(benchmark::State& state) {
  const auto producers = static_cast<std::size_t>(state.range(0));
  const bool wal_on = state.range(1) != 0;
  const std::uint64_t per_producer = kRecords / producers;
  const std::uint64_t total = per_producer * producers;

  const std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() / "dbs_bench_ingest";

  std::uint64_t drains = 0;
  std::uint64_t batches_synced = 0;
  for (auto _ : state) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);

    svc::IngestQueue queue;
    std::unique_ptr<svc::WalWriter> wal;
    if (wal_on)
      wal = std::make_unique<svc::WalWriter>(
          svc::wal_path(wal_dir.string()));

    const rms::JobSpec spec = bench_spec();
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t t = 0; t < producers; ++t) {
      threads.emplace_back([&, t]() {
        while (!go.load(std::memory_order_acquire)) {}
        for (std::uint64_t i = 0; i < per_producer; ++i) {
          queue.submit(Time::from_micros(static_cast<std::int64_t>(
                           t * per_producer + i)),
                       spec, wl::Behavior{});
          if (i % 256 == 0) std::this_thread::yield();
        }
      });
    }

    // Consumer: the service loop's admission path minus the simulation —
    // drain, stamp monotone admissions, log + fsync the batch.
    const auto begin = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    std::uint64_t consumed = 0;
    Time last_admitted;
    std::vector<svc::IngestChunk> batch;
    while (consumed < total) {
      // An idle consumer watches depth(), which takes no lock, and drains
      // only once something is queued.
      if (queue.depth() == 0) {
        std::this_thread::yield();
        continue;
      }
      batch.clear();
      const std::size_t n = queue.drain(batch);
      for (svc::IngestChunk& chunk : batch) {
        for (svc::IngestRecord& r : chunk) {
          last_admitted = max(r.requested, last_admitted);
          r.admitted = last_admitted;
          if (wal) wal->append_ingest(r);
        }
      }
      if (wal) {
        wal->flush();
        wal->fsync();
        ++batches_synced;
      }
      consumed += n;
      ++drains;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - begin;

    for (auto& t : threads) t.join();
    if (queue.pushed() != total) state.SkipWithError("lost records");
    state.SetIterationTime(elapsed.count());
    state.counters["records_per_sec"] =
        static_cast<double>(total) / elapsed.count();
  }
  state.counters["drains"] =
      benchmark::Counter(static_cast<double>(drains),
                         benchmark::Counter::kAvgIterations);
  state.counters["batches_synced"] =
      benchmark::Counter(static_cast<double>(batches_synced),
                         benchmark::Counter::kAvgIterations);
  std::filesystem::remove_all(wal_dir);
}

// Producers alone: the threads push the same records into a queue nobody
// drains while they run, so the time is the push path under P-way
// contention, not the consumer's rate.
void bm_ingest_push(benchmark::State& state) {
  const auto producers = static_cast<std::size_t>(state.range(0));
  const std::uint64_t per_producer = kRecords / producers;
  const rms::JobSpec spec = bench_spec();
  for (auto _ : state) {
    svc::IngestQueue queue;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t t = 0; t < producers; ++t) {
      threads.emplace_back([&, t]() {
        while (!go.load(std::memory_order_acquire)) {}
        for (std::uint64_t i = 0; i < per_producer; ++i)
          queue.submit(Time::from_micros(static_cast<std::int64_t>(
                           t * per_producer + i)),
                       spec, wl::Behavior{});
      });
    }
    const auto begin = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - begin;
    if (queue.pushed() != per_producer * producers)
      state.SkipWithError("lost records");
    state.SetIterationTime(elapsed.count());
  }
}

// The push path's reference: one producer thread builds each record as
// IngestQueue::submit does, draws a ticket and appends it to a vector, all
// under a bare std::mutex. Started and timed like bm_ingest_push.
void bm_ingest_push_reference(benchmark::State& state) {
  const rms::JobSpec spec = bench_spec();
  const auto record = [](Time requested, rms::JobSpec s,
                         wl::Behavior behavior) {
    svc::IngestRecord r;
    r.kind = svc::IngestKind::Submit;
    r.requested = requested;
    r.spec = std::move(s);
    r.behavior = behavior;
    return r;
  };
  for (auto _ : state) {
    std::mutex mutex;
    std::vector<svc::IngestRecord> items;
    std::uint64_t ticket = 0;
    std::atomic<bool> go{false};
    std::thread producer([&]() {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        svc::IngestRecord r = record(
            Time::from_micros(static_cast<std::int64_t>(i)), spec,
            wl::Behavior{});
        const std::lock_guard<std::mutex> lock(mutex);
        r.seq = ticket++;
        items.push_back(std::move(r));
      }
    });
    const auto begin = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    producer.join();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - begin;
    benchmark::DoNotOptimize(items.data());
    if (items.size() != kRecords) state.SkipWithError("lost records");
    state.SetIterationTime(elapsed.count());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("bm_ingest", bm_ingest)
      ->ArgsProduct({{1, 4, 16}, {0, 1}})
      ->ArgNames({"producers", "wal"})
      ->Iterations(3)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  // The reference runs just before producers:1, the row it gates, and both
  // average ten iterations: with three, one producer over the reference
  // spread across 1.0-1.4 from run to run on an unchanged tree.
  benchmark::RegisterBenchmark("bm_ingest_push/reference",
                               bm_ingest_push_reference)
      ->Iterations(10)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("bm_ingest_push", bm_ingest_push)
      ->Arg(1)
      ->Arg(16)
      ->ArgName("producers")
      ->Iterations(10)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dbs::bench::maybe_dump_metrics();
  return 0;
}
