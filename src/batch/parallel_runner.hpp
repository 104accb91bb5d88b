// Multi-replication experiment runner: executes independent replications
// (ESP campaigns, config matrices, ablation seed sweeps) concurrently, one
// isolated simulation per replication.
//
// Isolation + determinism contract: every replication owns its whole world
// — Simulator, Cluster, Server, scheduler and an isolated obs::Registry —
// so replications share nothing mutable. Results come back indexed by
// replication, and the per-replication registries are merged into the
// caller's target registry in replication order. Both happen the same way
// at every thread count (jobs == 1 also goes through the isolate+merge
// path), so output is bit-identical regardless of parallelism.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"

namespace dbs::batch {

/// Parallelism degree for benches/tools from the DBS_BENCH_JOBS environment
/// variable. Returns `fallback` when the variable is unset, empty, not a
/// number, or < 1.
[[nodiscard]] std::size_t jobs_from_env(std::size_t fallback = 1);

class ParallelRunner {
 public:
  /// `jobs` >= 1 replications run concurrently (1 = serial, same code path).
  explicit ParallelRunner(std::size_t jobs) : pool_(jobs) {}

  [[nodiscard]] std::size_t jobs() const { return pool_.worker_count(); }

  /// Runs `fn(index, registry)` for each replication index in [0, count),
  /// where `registry` is that replication's private metrics registry. Wire
  /// it into the replication's BatchSystem (set_sinks) so no two
  /// replications ever touch the same registry. Returns the per-replication
  /// results in index order; afterwards the private registries are merged
  /// into `merge_into` (when non-null) in index order.
  ///
  /// R must be default-constructible and movable. Exceptions from a
  /// replication propagate (lowest index wins) after all replications
  /// finish; no merge happens in that case.
  template <class R, class F>
  std::vector<R> map(std::size_t count, F&& fn,
                     obs::Registry* merge_into = nullptr) {
    std::vector<std::unique_ptr<obs::Registry>> registries;
    registries.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      registries.push_back(std::make_unique<obs::Registry>());
    std::vector<R> out = pool_.parallel_map<R>(
        count, [&](std::size_t index) {
          return fn(index, *registries[index]);
        });
    if (merge_into != nullptr)
      for (const auto& registry : registries) merge_into->merge_from(*registry);
    return out;
  }

 private:
  exec::ThreadPool pool_;
};

}  // namespace dbs::batch
