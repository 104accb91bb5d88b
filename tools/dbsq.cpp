// dbsq — query a flight-recorder file written by `dbsim --record-out`.
//
//   dbsq summary  run.dbsr
//   dbsq jobs     run.dbsr [--job ID]
//   dbsq range    run.dbsr --from S --to S
//   dbsq timeline run.dbsr [--metric M] [--bucket S] [--format json|csv]
//   dbsq verify   run.dbsr --trace events.jsonl
//
// summary prints whole-file totals (one scan). jobs prints every record
// touching a job — an O(1) index lookup, not a file scan — as JSON lines;
// decision records render exactly like `dbsim --dry-run-iteration` output.
// Without --job it lists the indexed job ids. range streams the records in
// [--from, --to) seconds (time-bucket index positions the scan). timeline
// folds the run into per-bucket curves: --metric all (default) emits the
// full time-series document, or pick one of utilization, queue_depth,
// used_core_s, user_usage, user_delay for a compact table. verify
// cross-checks the recorded decision stream against the run's JSONL trace
// and exits nonzero on any mismatch.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "metrics/timeseries.hpp"
#include "obs/recorder/query.hpp"
#include "obs/recorder/reader.hpp"
#include "obs/recorder/recorder.hpp"

#include "flag_value.hpp"

using namespace dbs;

namespace {

int usage(const char* argv0, int code) {
  std::cerr
      << "usage: " << argv0 << " COMMAND FILE [options]\n"
         "  summary  FILE                     whole-file totals as JSON\n"
         "  jobs     FILE [--job ID]          one job's records (or the id list)\n"
         "  range    FILE --from S --to S     records in a time window\n"
         "  timeline FILE [--metric all|utilization|queue_depth|used_core_s|\n"
         "                 user_usage|user_delay] [--bucket S] [--format json|csv]\n"
         "  verify   FILE --trace JSONL       diff decisions vs a run trace\n";
  return code;
}

int cmd_timeline(obs::rec::RecordReader& reader, const std::string& metric,
                 std::int64_t bucket_s, const std::string& format) {
  metrics::TimeseriesOptions options;
  options.bucket_s = bucket_s;
  const metrics::Timeseries ts = metrics::fold_timeseries(reader, options);
  if (metric == "all") {
    if (format == "csv")
      metrics::write_timeseries_csv(ts, std::cout);
    else
      metrics::write_timeseries_json(ts, std::cout);
    return 0;
  }
  // Single-metric table: CSV-shaped either way (grep/plot-friendly).
  if (metric == "utilization" || metric == "queue_depth" ||
      metric == "used_core_s") {
    std::cout << "start_us," << metric << "\n";
    for (const auto& b : ts.buckets)
      std::cout << b.start_us << ","
                << (metric == "utilization"
                        ? b.utilization
                        : metric == "queue_depth" ? b.avg_queue_depth
                                                  : b.used_core_s)
                << "\n";
    return 0;
  }
  if (metric == "user_usage" || metric == "user_delay") {
    std::cout << "start_us";
    for (const auto& user : ts.users) std::cout << "," << user;
    std::cout << "\n";
    for (const auto& b : ts.buckets) {
      std::cout << b.start_us;
      const auto& per_user = metric == "user_usage" ? b.user_usage_core_s
                                                    : b.user_cum_delay_s;
      for (const auto& user : ts.users) {
        const auto it = per_user.find(user);
        std::cout << "," << (it == per_user.end() ? 0.0 : it->second);
      }
      std::cout << "\n";
    }
    return 0;
  }
  std::cerr << "unknown metric '" << metric << "'\n";
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 3) return usage(argv[0], argc == 2 ? 2 : 2);
  const std::string command = argv[1];
  const std::string file = argv[2];

  std::uint64_t job = ~std::uint64_t{0};
  bool have_job = false;
  double from_s = 0.0, to_s = 0.0;
  bool have_from = false, have_to = false;
  std::string metric = "all";
  std::int64_t bucket_s = 60;
  std::string format = "json";
  std::string trace_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage(argv[0], 2));
      return argv[++i];
    };
    const auto int_value = [&](std::int64_t min) {
      const auto v = tools::int_flag(arg, next(), min);
      if (!v) std::exit(usage(argv[0], 2));
      return *v;
    };
    // Seconds; the bound keeps them inside int64 microseconds.
    const auto seconds = [&] {
      const auto v = tools::double_flag(arg, next(), 0, 9.2e12);
      if (!v) std::exit(usage(argv[0], 2));
      return *v;
    };
    if (arg == "--job") {
      job = static_cast<std::uint64_t>(int_value(0));
      have_job = true;
    } else if (arg == "--from") {
      from_s = seconds();
      have_from = true;
    } else if (arg == "--to") {
      to_s = seconds();
      have_to = true;
    } else if (arg == "--metric") metric = next();
    else if (arg == "--bucket") bucket_s = int_value(1);
    else if (arg == "--format") format = next();
    else if (arg == "--trace") trace_path = next();
    else return usage(argv[0], 2);
  }

  obs::rec::RecordReader reader;
  if (!reader.open(file)) {
    std::cerr << reader.error() << "\n";
    return 1;
  }

  if (command == "summary") {
    obs::rec::write_summary_json(obs::rec::summarize(reader), std::cout);
    return 0;
  }
  if (command == "jobs") {
    if (!have_job) {
      for (const std::uint64_t id : reader.jobs()) std::cout << id << "\n";
      return 0;
    }
    if (!reader.has_job(job)) {
      std::cerr << "job " << job << " not in the index\n";
      return 1;
    }
    for (const auto& line : obs::rec::job_history(reader, job))
      std::cout << line.json << "\n";
    return 0;
  }
  if (command == "range") {
    if (!have_from || !have_to) return usage(argv[0], 2);
    reader.scan_range(
        static_cast<std::int64_t>(from_s * 1e6),
        static_cast<std::int64_t>(to_s * 1e6),
        [&](const obs::rec::PackedRecord& r) {
          if (obs::rec::is_decision(r.type)) {
            std::string out;
            rms::decision_to_json(obs::rec::record_to_decision(r), out);
            std::cout << out << "\n";
          } else {
            std::cout << obs::rec::lifecycle_to_json(r, reader) << "\n";
          }
        });
    return 0;
  }
  if (command == "timeline") {
    if (format != "json" && format != "csv") {
      std::cerr << "unknown format '" << format << "'\n";
      return 2;
    }
    return cmd_timeline(reader, metric, bucket_s, format);
  }
  if (command == "verify") {
    if (trace_path.empty()) return usage(argv[0], 2);
    const obs::rec::VerifyResult result =
        obs::rec::verify_against_trace(reader, trace_path);
    std::cout << "compared " << result.compared
              << " decision/event pairs, " << result.mismatches.size()
              << " mismatches\n";
    for (const std::string& m : result.mismatches) std::cout << m << "\n";
    return result.ok() ? 0 : 1;
  }
  return usage(argv[0], 2);
}

}  // namespace

int main(int argc, char** argv) {
  // Whatever escapes the tool — a rejected precondition, an allocation or
  // thread-start failure — is reported and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dbsq: " << e.what() << "\n";
    return 1;
  }
}
