// Ablation X3: evolving-job fraction sweep on synthetic workloads, plus the
// two speedup models (PaperDet vs ScaleRemaining) on the dynamic ESP run.
#include "bench_common.hpp"
#include "workload/synthetic.hpp"

int main() {
  using namespace dbs;
  bench::print_header(
      "Ablation: evolving-job fraction and speedup-model sweeps",
      "workload sensitivity of §IV-B");

  TextTable mix({"Evolving %", "Time [mins]", "Grants", "Rejects", "Util [%]",
                 "AvgWait [s]"});
  for (const double fraction : {0.0, 0.15, 0.3, 0.45, 0.6}) {
    wl::SyntheticParams wp;
    wp.job_count = 300;
    wp.total_cores = 128;
    wp.evolving_fraction = fraction;
    wp.seed = 9;
    batch::SystemConfig cfg;
    cfg.cluster.node_count = 16;
    cfg.cluster.cores_per_node = 8;
    cfg.scheduler.reservation_depth = 5;
    cfg.scheduler.reservation_delay_depth = 5;
    cfg.scheduler.dfs.policy = core::DfsPolicy::TargetDelay;
    cfg.scheduler.dfs.defaults.target_delay = Duration::seconds(600);
    const batch::RunResult r =
        batch::run_workload(cfg, wl::generate_synthetic(wp),
                            "mix=" + TextTable::num(fraction, 2));
    std::int64_t grants = 0, rejects = 0;
    for (const auto& j : r.jobs) {
      grants += j.dyn_grants;
      rejects += j.dyn_rejects;
    }
    mix.add_row({TextTable::num(100.0 * fraction, 0),
                 TextTable::num(r.summary.makespan.as_minutes(), 2),
                 TextTable::num(grants), TextTable::num(rejects),
                 TextTable::num(r.summary.utilization, 2),
                 TextTable::num(r.summary.avg_wait.as_seconds(), 0)});
  }
  std::cout << mix.to_string() << "\n";

  // Satisfied: evolving jobs whose every request was granted (Table II's
  // strict count). Granted: dynamic requests granted.
  TextTable model({"Speedup model", "Time [mins]", "Satisfied", "Granted",
                   "Util [%]", "Throughput"});
  for (const apps::SpeedupModel m :
       {apps::SpeedupModel::PaperDet, apps::SpeedupModel::ScaleRemaining}) {
    batch::EspExperimentParams params;
    params.speedup = m;
    const batch::RunResult r = batch::run_esp(params, batch::EspConfig::DynHP);
    model.add_row(
        {std::string(apps::to_string(m)),
         TextTable::num(r.summary.makespan.as_minutes(), 2),
         TextTable::num(static_cast<std::int64_t>(r.summary.satisfied_dyn_jobs)),
         TextTable::num(static_cast<std::int64_t>(r.summary.granted_dyn_requests)),
         TextTable::num(r.summary.utilization, 2),
         TextTable::num(r.summary.throughput_jobs_per_min, 2)});
  }
  std::cout << model.to_string()
            << "(PaperDet reproduces Table I's DET exactly; ScaleRemaining "
               "scales only the remaining work)\n";
  bench::maybe_dump_metrics();
  return 0;
}
