// A small experiment-campaign driver around the dynamic ESP benchmark:
//
//   $ ./esp_campaign                      # the paper's four configurations
//   $ ./esp_campaign --seed 7 --cores 256 # a different machine / ordering
//   $ ./esp_campaign --trace out.trace    # dump the workload and exit
//
// Its flags are declared on tools::Flags, like the tools': --help lists
// them, and a bad value exits 2 naming the flag.
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "batch/esp_experiment.hpp"
#include "common/table.hpp"
#include "config/maui_config.hpp"
#include "flags.hpp"
#include "workload/trace.hpp"

using namespace dbs;

namespace {

int run(int argc, char** argv) {
  batch::EspExperimentParams params;
  std::string trace_path;
  const std::int64_t max_limit_s = cfg::kMaxDuration.as_micros() / 1'000'000;
  std::int64_t limit500_s = params.dyn500_limit.as_micros() / 1'000'000;
  std::int64_t limit600_s = params.dyn600_limit.as_micros() / 1'000'000;

  tools::Flags flags("esp_campaign",
                     "runs the dynamic ESP benchmark in the paper's four "
                     "configurations, or writes its workload as a trace");
  flags.integer("--seed", params.workload.seed, 0, "N",
                "seed of the submission-order shuffle");
  flags.integer("--cores", params.workload.total_cores, 1, "N",
                "machine size in cores (a multiple of 8 to run the campaign)");
  flags.integer("--limit500", limit500_s, 0, "S",
                "per-user delay limit of the Dyn-500 configuration, seconds",
                max_limit_s);
  flags.integer("--limit600", limit600_s, 0, "S",
                "per-user delay limit of the Dyn-600 configuration, seconds",
                max_limit_s);
  flags.text("--trace", trace_path, "FILE",
             "write the workload as a dbs trace and exit");
  if (const std::optional<int> stop = flags.parse(argc, argv)) return *stop;
  params.dyn500_limit = Duration::seconds(limit500_s);
  params.dyn600_limit = Duration::seconds(limit600_s);

  if (!trace_path.empty()) {
    const wl::Workload workload = wl::generate_esp(params.workload);
    std::ofstream out(trace_path);
    wl::write_trace(out, workload);
    std::cout << "wrote " << workload.jobs.size() << " jobs to " << trace_path
              << "\n";
    return 0;
  }

  std::cout << "dynamic ESP campaign on " << params.workload.total_cores
            << " cores (seed " << params.workload.seed << ")\n\n";
  const auto results = batch::run_esp_all(params);
  const double baseline_tp = results[0].summary.throughput_jobs_per_min;
  TextTable table(metrics::performance_header());
  for (std::size_t i = 0; i < results.size(); ++i)
    table.add_row(metrics::performance_row(results[i].label,
                                           results[i].summary,
                                           i == 0 ? 0.0 : baseline_tp));
  std::cout << table.to_string();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A value in range that cannot run (a machine that is not whole nodes)
  // is reported and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "esp_campaign: " << e.what() << "\n";
    return 1;
  }
}
