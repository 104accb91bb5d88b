// Ablation X1: sweep of ReservationDelayDepth (the paper's new knob that
// controls how many StartLater jobs are protected by delay measurement)
// on the dynamic ESP workload under the Dyn-600 fairness policy.
// tests/integration/esp_experiment_test.cpp pins both count columns.
#include "bench_common.hpp"

int main() {
  using namespace dbs;
  bench::print_header(
      "Ablation: ReservationDelayDepth sweep (Dyn-600 policy)",
      "design knob of §III-C / Fig. 5");

  // Satisfied: evolving jobs whose every request was granted (Table II's
  // strict count). Granted: dynamic requests granted.
  TextTable table({"DelayDepth", "Time [mins]", "Satisfied", "Granted",
                   "Util [%]", "Throughput", "AvgWait [s]", "MaxWait [s]"});
  for (const std::size_t depth : {0u, 1u, 2u, 5u, 10u, 20u}) {
    batch::EspExperimentParams params;
    params.reservation_delay_depth = depth;
    const batch::RunResult r =
        batch::run_esp(params, batch::EspConfig::Dyn600);
    table.add_row({TextTable::num(static_cast<std::int64_t>(depth)),
                   TextTable::num(r.summary.makespan.as_minutes(), 2),
                   TextTable::num(static_cast<std::int64_t>(r.summary.satisfied_dyn_jobs)),
                   TextTable::num(static_cast<std::int64_t>(r.summary.granted_dyn_requests)),
                   TextTable::num(r.summary.utilization, 2),
                   TextTable::num(r.summary.throughput_jobs_per_min, 2),
                   TextTable::num(r.summary.avg_wait.as_seconds(), 0),
                   TextTable::num(r.summary.max_wait.as_seconds(), 0)});
  }
  std::cout << table.to_string()
            << "(small depths protect fewer queued jobs -> more grants, "
               "less fairness; the paper used 5)\n";
  bench::maybe_dump_metrics();
  return 0;
}
