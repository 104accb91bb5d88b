// Table II: performance of the four evaluation configurations (Static,
// Dyn-HP, Dyn-500, Dyn-600) on the dynamic ESP workload.
#include "bench_common.hpp"

int main() {
  using namespace dbs;
  bench::print_header(
      "Performance comparison of the evaluation configurations", "Table II");

  const std::vector<batch::RunResult> results =
      batch::run_esp_all(bench::paper_esp_params());

  const double baseline_tp = results[0].summary.throughput_jobs_per_min;
  TextTable table(metrics::performance_header());
  for (std::size_t i = 0; i < results.size(); ++i)
    table.add_row(metrics::performance_row(
        results[i].label, results[i].summary, i == 0 ? 0.0 : baseline_tp));
  std::cout << table.to_string();

  std::cout << "\npaper reference:\n"
            << "| Static  | 265.78 |  0 | 77.45 | 0.86 | -    |\n"
            << "| Dyn-HP  | 238.78 | 43 | 85.02 | 0.96 | 11.3 |\n"
            << "| Dyn-500 | 248.85 | 20 | 82.26 | 0.92 | 6.8  |\n"
            << "| Dyn-600 | 241.06 | 27 | 83.57 | 0.95 | 10.2 |\n";

  TextTable extra({"Config", "Backfilled", "AvgWait [s]", "MaxWait [s]",
                   "SchedIters", "SimEvents"});
  for (const auto& r : results)
    extra.add_row({r.label,
                   TextTable::num(static_cast<std::int64_t>(r.summary.backfilled_jobs)),
                   TextTable::num(r.summary.avg_wait.as_seconds(), 0),
                   TextTable::num(r.summary.max_wait.as_seconds(), 0),
                   TextTable::num(static_cast<std::int64_t>(r.scheduler_iterations)),
                   TextTable::num(static_cast<std::int64_t>(r.events))});
  std::cout << "\n" << extra.to_string();
  bench::maybe_dump_metrics();
  return 0;
}
