// Ablation X4 (beyond the paper's evaluation): the alternative §II-B
// servicing strategies — idle-only (the paper's choice), preemption of
// backfilled jobs, and a reserved dynamic partition — on the dynamic ESP
// workload under the Dyn-600 policy.
// tests/integration/esp_experiment_test.cpp pins its grants, requeues and
// shrinks.
#include "bench_common.hpp"
#include "workload/synthetic.hpp"

int main() {
  using namespace dbs;
  bench::print_header(
      "Ablation: dynamic-request servicing strategies (Dyn-600)",
      "the §II-B design alternatives");

  struct Strategy {
    std::string name;
    bool preemption;
    bool malleable_steal;
    CoreCount partition;
    double preemptible_fraction;  // of the synthetic rigid load
    double malleable_fraction;
  };
  const std::vector<Strategy> strategies = {
      {"idle-only (paper)", false, false, 0, 0.0, 0.0},
      {"preemption", true, false, 0, 0.5, 0.0},
      {"malleable-steal", false, true, 0, 0.0, 0.5},
      {"partition-8", false, false, 8, 0.0, 0.0},
      {"partition-16", false, false, 16, 0.0, 0.0},
  };

  TextTable table({"Strategy", "Time [mins]", "Grants", "Requeues", "Shrinks",
                   "Util [%]", "AvgWait [s]"});
  for (const Strategy& s : strategies) {
    wl::SyntheticParams wp;
    wp.job_count = 300;
    wp.total_cores = 128;
    wp.evolving_fraction = 0.3;
    wp.preemptible_fraction = s.preemptible_fraction;
    wp.malleable_fraction = s.malleable_fraction;
    wp.seed = 11;
    batch::SystemConfig cfg;
    cfg.cluster.node_count = 16;
    cfg.cluster.cores_per_node = 8;
    cfg.scheduler.reservation_depth = 5;
    cfg.scheduler.reservation_delay_depth = 5;
    cfg.scheduler.allow_preemption = s.preemption;
    cfg.scheduler.allow_malleable_steal = s.malleable_steal;
    cfg.scheduler.dynamic_partition_cores = s.partition;
    cfg.scheduler.dfs.policy = core::DfsPolicy::TargetDelay;
    cfg.scheduler.dfs.defaults.target_delay = Duration::seconds(600);
    const batch::RunResult r =
        batch::run_workload(cfg, wl::generate_synthetic(wp), s.name);
    std::int64_t grants = 0, requeues = 0, shrinks = 0;
    for (const auto& j : r.jobs) {
      grants += j.dyn_grants;
      requeues += j.requeues;
      shrinks += j.malleable_shrinks;
    }
    table.add_row({s.name,
                   TextTable::num(r.summary.makespan.as_minutes(), 2),
                   TextTable::num(grants), TextTable::num(requeues),
                   TextTable::num(shrinks),
                   TextTable::num(r.summary.utilization, 2),
                   TextTable::num(r.summary.avg_wait.as_seconds(), 0)});
  }
  std::cout << table.to_string()
            << "(a partition boosts grant rates but idles cores for static "
               "work — the guaranteeing-approach trade-off of §II-B)\n";
  bench::maybe_dump_metrics();
  return 0;
}
