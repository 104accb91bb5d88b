// dbsq — query a flight-recorder file written by `dbsim --record-out`
// (`dbsq --help` lists the commands and flags).
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
#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "metrics/timeseries.hpp"
#include "obs/recorder/query.hpp"
#include "obs/recorder/reader.hpp"
#include "obs/recorder/recorder.hpp"

#include "flags.hpp"

using namespace dbs;

namespace {

void cmd_timeline(obs::rec::RecordReader& reader, const std::string& metric,
                  std::int64_t bucket_s, const std::string& format) {
  metrics::TimeseriesOptions options;
  options.bucket_s = bucket_s;
  const metrics::Timeseries ts = metrics::fold_timeseries(reader, options);
  if (metric == "all") {
    if (format == "csv")
      metrics::write_timeseries_csv(ts, std::cout);
    else
      metrics::write_timeseries_json(ts, std::cout);
    return;
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
    return;
  }
  // user_usage or user_delay: one column per user.
  std::cout << "start_us";
  for (const auto& user : ts.users) std::cout << "," << user;
  std::cout << "\n";
  for (const auto& b : ts.buckets) {
    std::cout << b.start_us;
    const auto& per_user =
        metric == "user_usage" ? b.user_usage_core_s : b.user_cum_delay_s;
    for (const auto& user : ts.users) {
      const auto it = per_user.find(user);
      std::cout << "," << (it == per_user.end() ? 0.0 : it->second);
    }
    std::cout << "\n";
  }
}

int run(int argc, char** argv) {
  std::string command;
  std::string file;
  std::optional<std::uint64_t> job;
  std::optional<double> from_s;
  std::optional<double> to_s;
  std::string metric = "all";
  std::int64_t bucket_s = 60;
  std::string format = "json";
  std::string trace_path;

  tools::Flags flags(
      "dbsq",
      "commands:\n"
      "  summary   whole-file totals as JSON\n"
      "  jobs      one job's records (--job), or the indexed job ids\n"
      "  range     records in [--from, --to)\n"
      "  timeline  per-bucket curves\n"
      "  verify    diff the recorded decisions against --trace");
  flags.operand("COMMAND", command);
  flags.operand("FILE", file);
  flags.integer("--job", job, 0, "ID", "jobs: the job to show");
  // Seconds; the bound keeps them inside int64 microseconds.
  flags.number("--from", from_s, 0, 9.2e12, "S",
               "range: window start, seconds");
  flags.number("--to", to_s, 0, 9.2e12, "S", "range: window end, seconds");
  flags.choice("--metric", metric,
               {"all", "utilization", "queue_depth", "used_core_s",
                "user_usage", "user_delay"},
               "timeline: the whole time series or one curve");
  flags.integer("--bucket", bucket_s, 1, "S",
                "timeline: bucket width, seconds");
  flags.choice("--format", format, {"json", "csv"},
               "timeline: format of the whole time series");
  flags.text("--trace", trace_path, "JSONL", "verify: the run's JSONL trace");
  if (const std::optional<int> stop = flags.parse(argc, argv)) return *stop;

  constexpr std::array<std::string_view, 5> kCommands = {
      "summary", "jobs", "range", "timeline", "verify"};
  if (std::find(kCommands.begin(), kCommands.end(), command) ==
      kCommands.end())
    return flags.fail("unknown command '" + command + "'");
  if (command == "range" && (!from_s || !to_s))
    return flags.fail("range needs --from and --to");
  if (command == "verify" && trace_path.empty())
    return flags.fail("verify needs --trace");

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
    if (!job) {
      for (const std::uint64_t id : reader.jobs()) std::cout << id << "\n";
      return 0;
    }
    if (!reader.has_job(*job)) {
      std::cerr << "job " << *job << " not in the index\n";
      return 1;
    }
    for (const auto& line : obs::rec::job_history(reader, *job))
      std::cout << line.json << "\n";
    return 0;
  }
  if (command == "range") {
    reader.scan_range(
        static_cast<std::int64_t>(*from_s * 1e6),
        static_cast<std::int64_t>(*to_s * 1e6),
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
    cmd_timeline(reader, metric, bucket_s, format);
    return 0;
  }
  // verify
  const obs::rec::VerifyResult result =
      obs::rec::verify_against_trace(reader, trace_path);
  std::cout << "compared " << result.compared << " decision/event pairs, "
            << result.mismatches.size() << " mismatches\n";
  for (const std::string& m : result.mismatches) std::cout << m << "\n";
  return result.ok() ? 0 : 1;
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
