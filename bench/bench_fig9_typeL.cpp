// Fig. 9: waiting times of type-L jobs in all four configurations.
#include "bench_common.hpp"

int main() {
  using namespace dbs;
  bench::print_header("Waiting times of type L jobs, all configurations",
                      "Fig. 9");

  const auto params = bench::paper_esp_params();
  const std::vector<batch::RunResult> runs = batch::run_esp_all(params);

  std::vector<std::string> header{"L job"};
  for (const auto& r : runs) header.push_back(r.label + " wait[s]");
  TextTable table(header);

  const auto series0 = metrics::wait_series(runs[0].jobs, "L");
  for (std::size_t i = 0; i < series0.size(); ++i) {
    std::vector<std::string> row{std::to_string(i + 1)};
    for (const auto& r : runs) {
      const auto series = metrics::wait_series(r.jobs, "L");
      row.push_back(TextTable::num(series[i].wait.as_seconds(), 0));
    }
    table.add_row(row);
  }
  std::cout << table.to_string();

  std::cout << "\nmean type-L waiting time per configuration:\n";
  for (const auto& r : runs) {
    Duration sum;
    const auto series = metrics::wait_series(r.jobs, "L");
    for (const auto& w : series) sum += w.wait;
    std::cout << "  " << r.label << ": "
              << TextTable::num(
                     sum.as_seconds() / static_cast<double>(series.size()), 0)
              << " s\n";
  }
  std::cout << "(paper: half of the L jobs suffer under Dyn-HP; the fairness "
               "configurations recover them)\n";
  bench::maybe_dump_metrics();
  return 0;
}
