// Fig. 12: the overhead of a dynamic allocation of 1..10 nodes, from a job
// running on one statically allocated node, (i) on an idle system and
// (ii) with a rigid workload queued and ReservationDelayDepth = 5.
//
// Two measurements are reported:
//  - the virtual-time protocol overhead (daemon hops + dyn_join), which is
//    what the paper's wall clock measured end to end, and
//  - the real wall-clock cost of the scheduler's dynamic-allocation path
//    (delay measurement + fairness check + commit) via google-benchmark —
//    this is where the with-workload curve separates from the idle one.
#include <benchmark/benchmark.h>

#include "apps/rigid.hpp"
#include "batch/overhead_experiment.hpp"
#include "bench_common.hpp"
#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"

namespace {

using namespace dbs;

/// Wall-clock microbenchmark of one dynamic-request evaluation against a
/// queue of `queued` protected jobs and a request of `nodes` nodes.
void bm_dynamic_request_path(benchmark::State& state) {
  const auto nodes = static_cast<CoreCount>(state.range(0));
  const auto queued = static_cast<std::size_t>(state.range(1));

  const Time now = Time::epoch();
  core::AvailabilityProfile planning(now, 128);
  planning.subtract(now, now + Duration::minutes(30), 8);  // the owner job

  std::vector<std::unique_ptr<rms::Job>> storage;
  std::vector<const rms::Job*> jobs;
  for (std::size_t i = 0; i < queued; ++i) {
    rms::JobSpec spec;
    spec.name = "q" + std::to_string(i);
    spec.cred = {"user" + std::to_string(i), "g", "", "batch", ""};
    spec.cores = 128;
    spec.walltime = Duration::minutes(20);
    storage.push_back(std::make_unique<rms::Job>(
        JobId{i}, spec, std::make_unique<apps::RigidApp>(Duration::minutes(20)),
        now));
    jobs.push_back(storage.back().get());
  }
  rms::JobSpec owner_spec;
  owner_spec.name = "owner";
  owner_spec.cred = {"evolver", "g", "", "batch", ""};
  owner_spec.cores = 8;
  owner_spec.walltime = Duration::minutes(30);
  rms::Job::Restore running;
  running.state = rms::JobState::Running;
  running.start = now;
  running.placement = cluster::Placement{{{NodeId{0}, 8}}};
  const auto owner_job = rms::Job::restore(
      JobId{1000}, owner_spec,
      std::make_unique<apps::RigidApp>(Duration::minutes(30)), now, running);
  const rms::Job& owner = *owner_job;

  const core::PlanOptions opts{now, 5, true, false};
  const core::ReservationTable baseline =
      core::plan_jobs(jobs, planning, opts).table;
  core::DfsConfig dfs_cfg;
  dfs_cfg.policy = core::DfsPolicy::TargetDelay;
  dfs_cfg.defaults.target_delay = Duration::hours(10);
  core::DfsEngine dfs(dfs_cfg);
  const rms::DynRequest request{RequestId{1}, owner.id(), nodes * 8, now, 1,
                                now};

  for (auto _ : state) {
    const core::DynHold hold = core::make_hold(owner, request, now);
    auto m = core::measure_dynamic_request(
        hold, jobs, core::protected_subset(jobs, baseline, 5), baseline,
        planning, 120, opts);
    const auto verdict = dfs.admit(owner.spec().cred, m.delays);
    benchmark::DoNotOptimize(verdict);
    benchmark::DoNotOptimize(m.delays.data());
  }
  state.SetLabel(std::to_string(nodes) + " nodes, " + std::to_string(queued) +
                 " queued jobs");
}

void print_virtual_time_series() {
  bench::print_header(
      "Dynamic allocation overhead for 1-10 nodes (virtual time)", "Fig. 12");
  TextTable table({"Nodes", "idle system [ms]", "with workload [ms]"});
  batch::OverheadParams idle;
  batch::OverheadParams loaded;
  loaded.with_workload = true;
  const auto a = batch::measure_dyn_overhead(idle);
  const auto b = batch::measure_dyn_overhead(loaded);
  for (std::size_t i = 0; i < a.size(); ++i)
    table.add_row({TextTable::num(static_cast<std::int64_t>(a[i].nodes)),
                   TextTable::num(a[i].overhead.as_seconds() * 1000.0, 2),
                   TextTable::num(b[i].overhead.as_seconds() * 1000.0, 2)});
  std::cout << table.to_string()
            << "(paper: sub-second for up to 10 nodes; grows with node "
               "count, slightly higher with a workload)\n\n"
            << "wall-clock cost of the scheduler's dynamic-request path "
               "(google-benchmark):\n";
}

}  // namespace

BENCHMARK(bm_dynamic_request_path)
    ->ArgsProduct({{1, 2, 4, 6, 8, 10}, {0, 8}})
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  print_virtual_time_series();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::maybe_dump_metrics();
  return 0;
}
