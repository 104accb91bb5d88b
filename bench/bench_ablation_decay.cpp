// Ablation X2: DFSDECAY and DFSINTERVAL sweeps under the Dyn-500 policy —
// how much history the cumulative-delay accounting keeps.
#include "bench_common.hpp"

int main() {
  using namespace dbs;
  bench::print_header("Ablation: DFSDECAY and DFSINTERVAL sweeps (Dyn-500)",
                      "§III-D parameters");

  // Satisfied: evolving jobs whose every request was granted (Table II's
  // strict count). Granted: dynamic requests granted.
  TextTable decay_table({"DFSDECAY", "Time [mins]", "Satisfied", "Granted",
                         "Util [%]", "MaxWait [s]"});
  for (const double decay : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    batch::EspExperimentParams params;
    batch::SystemConfig cfg =
        esp_system_config(params, batch::EspConfig::Dyn500);
    cfg.scheduler.dfs.decay = decay;
    wl::EspParams wp = params.workload;
    const wl::Workload workload = wl::generate_esp(wp);
    const batch::RunResult r = batch::run_workload(
        cfg, workload, "decay=" + TextTable::num(decay, 1));
    decay_table.add_row(
        {TextTable::num(decay, 1),
         TextTable::num(r.summary.makespan.as_minutes(), 2),
         TextTable::num(static_cast<std::int64_t>(r.summary.satisfied_dyn_jobs)),
         TextTable::num(static_cast<std::int64_t>(r.summary.granted_dyn_requests)),
         TextTable::num(r.summary.utilization, 2),
         TextTable::num(r.summary.max_wait.as_seconds(), 0)});
  }
  std::cout << decay_table.to_string()
            << "(decay 1.0 never forgets charged delays; 0.0 resets each "
               "interval)\n\n";

  TextTable interval_table({"DFSINTERVAL", "Time [mins]", "Satisfied",
                            "Granted", "Util [%]", "MaxWait [s]"});
  for (const std::int64_t minutes : {15, 30, 60, 120, 240}) {
    batch::EspExperimentParams params;
    params.dfs_interval = Duration::minutes(minutes);
    const batch::RunResult r = batch::run_esp(params, batch::EspConfig::Dyn500);
    interval_table.add_row(
        {Duration::minutes(minutes).to_hms(),
         TextTable::num(r.summary.makespan.as_minutes(), 2),
         TextTable::num(static_cast<std::int64_t>(r.summary.satisfied_dyn_jobs)),
         TextTable::num(static_cast<std::int64_t>(r.summary.granted_dyn_requests)),
         TextTable::num(r.summary.utilization, 2),
         TextTable::num(r.summary.max_wait.as_seconds(), 0)});
  }
  std::cout << interval_table.to_string()
            << "(shorter intervals refresh the 500 s budget more often -> "
               "more grants)\n";
  bench::maybe_dump_metrics();
  return 0;
}
