#include "batch/sharded_system.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "workload/source.hpp"

namespace dbs::batch {

core::ShardMap make_shard_map(const cluster::ClusterSpec& spec,
                              const ShardConfig& config) {
  switch (config.map) {
    case ShardMapKind::Hash:
      return core::ShardMap::by_hash(spec, config.shards);
    case ShardMapKind::Range:
      break;
  }
  return core::ShardMap::by_range(spec, config.shards);
}

ShardedSystem::ShardedSystem(const SystemConfig& base,
                             const ShardConfig& config)
    : config_(config),
      map_(make_shard_map(base.cluster, config)),
      router_(map_, config.policy),
      pool_(std::clamp<std::size_t>(config.threads, 1, map_.shard_count())) {
  const std::size_t count = map_.shard_count();
  registries_.reserve(count);
  systems_.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    SystemConfig shard_config = base;
    shard_config.cluster = map_.shard(k).cluster;
    registries_.push_back(std::make_unique<obs::Registry>());
    systems_.push_back(std::make_unique<BatchSystem>(shard_config));
    systems_.back()->set_sinks(
        obs::Sinks(nullptr, registries_.back().get()));
  }
}

void ShardedSystem::set_shard_sinks(std::size_t k, obs::Tracer* tracer,
                                    obs::rec::FlightRecorder* recorder) {
  shard(k).set_sinks(obs::Sinks(tracer, registries_.at(k).get(), recorder));
}

void ShardedSystem::submit_workload(const wl::Workload& workload) {
  for (const wl::SubmitSpec& s : workload.jobs) {
    wl::Workload one;
    one.jobs.push_back(s);
    shard(router_.route(s.spec)).submit_workload(one);
  }
}

void ShardedSystem::submit_stream(wl::SubmissionSource& source,
                                  std::size_t window) {
  DBS_REQUIRE(routed_sources_.empty(),
              "submit_stream may be called once per sharded run");
  routed_.assign(map_.shard_count(), wl::Workload{});
  wl::SubmitSpec s;
  while (source.next(s)) routed_[router_.route(s.spec)].jobs.push_back(s);
  routed_sources_.reserve(routed_.size());
  for (std::size_t k = 0; k < routed_.size(); ++k) {
    routed_sources_.push_back(
        std::make_unique<wl::WorkloadSource>(routed_[k]));
    shard(k).submit_stream(*routed_sources_.back(), window);
  }
}

void ShardedSystem::run() {
  pool_.parallel_for(systems_.size(),
                     [&](std::size_t k) { systems_[k]->run(); });
}

void ShardedSystem::run_until(Time until) {
  pool_.parallel_for(systems_.size(),
                     [&](std::size_t k) { systems_[k]->run_until(until); });
}

void ShardedSystem::merge_registries(obs::Registry& into) const {
  for (const auto& registry : registries_) into.merge_from(*registry);
}

metrics::WorkloadSummary ShardedSystem::shard_summary(std::size_t k) const {
  return metrics::summarize(shard(k).recorder());
}

metrics::WorkloadSummary ShardedSystem::summary() const {
  std::vector<metrics::WorkloadSummary> parts;
  std::vector<CoreCount> capacities;
  parts.reserve(systems_.size());
  capacities.reserve(systems_.size());
  for (std::size_t k = 0; k < systems_.size(); ++k) {
    parts.push_back(shard_summary(k));
    const cluster::ClusterSpec& c = map_.shard(k).cluster;
    capacities.push_back(static_cast<CoreCount>(c.node_count) *
                         c.cores_per_node);
  }
  return metrics::merge_summaries(parts, capacities);
}

}  // namespace dbs::batch
