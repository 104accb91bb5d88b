// `dbsd`: the always-on batch service daemon.
//
//   dbsd --swf FILE --state-dir DIR [--config FILE] [--nodes N]
//        [--cores-per-node N] [--snapshot-every N] [--tick-ms MS]
//        [--throttle-ms MS] [--max-jobs N] [--max-ticks N]
//        [--swf-overlay-dynamic PCT] [--swf-seed S]
//        [--summary-json FILE|-] [--quiet]
//        [--shards K] [--shard-by hash|user|partition|least]
//        [--shard-map range|hash] [--shard-threads T]
//
// Unlike dbsim (one-shot: submit a workload, run, report) dbsd runs a
// service: a producer thread feeds the SWF trace through the concurrent
// ingest queue — exactly as qsub shims would — while the service loop
// drains, appends to the write-ahead log, schedules and snapshots. Kill it
// at any moment (SIGKILL included) and restart with the same --state-dir:
// it recovers from the newest snapshot, replays the WAL tail, verifies the
// re-made decisions record against record with the log, skips the trace
// records it already ingested, and continues. SIGTERM/SIGINT stop cleanly
// (final snapshot written).
//
// --state-dir "" runs the service without durability (ingest path only).
// --throttle-ms paces the producer (gives a crash window to CI);
// --max-jobs bounds the trace prefix; --summary-json emits the final
// workload summary with stable keys, so an interrupted-and-recovered run
// can be diffed against an uninterrupted one.
//
// --shards K runs the sharded service: the cluster's nodes split into K
// shards (each with its own scheduler, WAL and snapshots under
// <state-dir>/shard-<k>), submissions route deterministically by
// --shard-by, and the K shard loops tick concurrently on --shard-threads
// workers. Recovery stays per-shard and parallel; the summary JSON is the
// capacity-weighted merge and is byte-identical for every --shard-threads.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "batch/batch_system.hpp"
#include "batch/sharded_system.hpp"
#include "metrics/report.hpp"
#include "svc/ingest.hpp"
#include "svc/service_loop.hpp"
#include "svc/sharded_service.hpp"
#include "workload/swf/swf_source.hpp"

#include "flag_value.hpp"
#include "run_options.hpp"

using namespace dbs;

namespace {

svc::ServiceLoop* g_service = nullptr;
svc::ShardedService* g_sharded = nullptr;
std::atomic<bool> g_stop{false};

void handle_signal(int) {
  // All flags are plain atomic stores: async-signal-safe.
  g_stop.store(true);
  if (g_service != nullptr) g_service->stop();
  if (g_sharded != nullptr) g_sharded->stop();
}

void watch(svc::ServiceLoop& service) { g_service = &service; }
void watch(svc::ShardedService& service) { g_sharded = &service; }

int usage(const char* argv0, int code) {
  std::cerr
      << "usage: " << argv0
      << " --swf FILE [--state-dir DIR] [--config FILE] [--nodes N]\n"
         "       [--cores-per-node N] [--snapshot-every N] [--tick-ms MS]\n"
         "       [--throttle-ms MS] [--max-jobs N] [--max-ticks N]\n"
         "       [--swf-overlay-dynamic PCT] [--swf-seed S]\n"
         "       [--summary-json FILE|-] [--quiet]\n"
         "       [--shards K] [--shard-by hash|user|partition|least]\n"
         "       [--shard-map range|hash] [--shard-threads T]\n";
  return code;
}

void write_summary_json(std::ostream& os, const metrics::WorkloadSummary& s,
                        std::uint64_t wal_ingest, std::uint64_t wal_decisions,
                        bool recovered) {
  os << "{\n"
     << "  \"jobs_submitted\": " << s.jobs_submitted << ",\n"
     << "  \"jobs_completed\": " << s.jobs_completed << ",\n"
     << "  \"evolving_jobs\": " << s.evolving_jobs << ",\n"
     << "  \"satisfied_dyn_jobs\": " << s.satisfied_dyn_jobs << ",\n"
     << "  \"granted_dyn_requests\": " << s.granted_dyn_requests << ",\n"
     << "  \"backfilled_jobs\": " << s.backfilled_jobs << ",\n"
     << "  \"makespan_us\": " << s.makespan.as_micros() << ",\n"
     << "  \"avg_wait_us\": " << s.avg_wait.as_micros() << ",\n"
     << "  \"max_wait_us\": " << s.max_wait.as_micros() << ",\n"
     << "  \"avg_turnaround_us\": " << s.avg_turnaround.as_micros() << ",\n"
     << "  \"wal_ingest\": " << wal_ingest << ",\n"
     << "  \"wal_decisions\": " << wal_decisions << ",\n"
     << "  \"recovered\": " << (recovered ? "true" : "false") << "\n"
     << "}\n";
}

/// What the service run needs besides the system it drives.
struct Options {
  std::string state_dir;
  std::string summary_json;
  std::int64_t throttle_ms = 0;
  std::uint64_t max_jobs = 0;
  std::size_t shards = 1;
  bool quiet = false;
};

/// Recovers `service` (a svc::ServiceLoop or a svc::ShardedService), feeds
/// it the trace from a producer thread the way qsub shims would, runs it to
/// the end and reports. `summarize` yields the final workload summary.
template <class Service, class Summarize>
int serve(Service& service, svc::IngestQueue& ingest,
          wl::swf::SwfSource& source, const Options& opt,
          const Summarize& summarize) {
  const char* shard_dirs = opt.shards > 1 ? "/shard-*" : "";
  bool recovered = false;
  if (!opt.state_dir.empty()) {
    recovered = service.open();
    if (!opt.quiet && recovered)
      std::cerr << "dbsd: recovered state from " << opt.state_dir
                << shard_dirs << " (" << service.wal_ingest_total()
                << " ingested, " << service.wal_decision_total()
                << " decisions)\n";
  }

  watch(service);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Skip what a previous life already made durable. Sharded routing is
  // deterministic and in global ticket (= trace) order, so the first
  // `skip` trace records are exactly the ones the shard WALs hold.
  const std::uint64_t skip = service.wal_ingest_total();
  // A jthread: if the service loop throws, unwinding requests its stop and
  // joins it, so main can report the error and exit 1.
  std::jthread producer([&](const std::stop_token& unwinding) {
    wl::SubmitSpec s;
    std::uint64_t yielded = 0;
    while (!g_stop.load(std::memory_order_acquire) &&
           !unwinding.stop_requested()) {
      if (!source.next(s)) break;
      ++yielded;
      if (yielded <= skip) continue;  // already in the WAL
      if (opt.max_jobs != 0 && yielded > opt.max_jobs) break;
      ingest.submit(s.at, std::move(s.spec), s.behavior);
      if (opt.throttle_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(opt.throttle_ms));
    }
    ingest.close();
  });

  const std::uint64_t ticks = service.run();
  g_stop.store(true);
  producer.join();

  const metrics::WorkloadSummary summary = summarize();
  if (!opt.quiet) {
    std::cerr << "dbsd: " << summary.jobs_submitted << " submitted, "
              << summary.jobs_completed << " completed, "
              << service.wal_decision_total() << " decisions, "
              << service.snapshots_written() << " snapshots, " << ticks
              << " ticks";
    if (opt.shards > 1) std::cerr << " across " << opt.shards << " shards";
    std::cerr << (service.drained() ? "" : " (stopped before drain)") << "\n";
  }
  if (opt.summary_json.empty()) return 0;
  const bool to_stdout = opt.summary_json == "-";
  std::ofstream file;
  if (!to_stdout) {
    file.open(opt.summary_json);
    if (!file) {
      std::cerr << "cannot open " << opt.summary_json << "\n";
      return 1;
    }
  }
  write_summary_json(to_stdout ? std::cout : file, summary,
                     service.wal_ingest_total(), service.wal_decision_total(),
                     recovered);
  return 0;
}

int run(int argc, char** argv) {
  Options opt;
  std::string swf_path;
  std::string config_path;
  std::size_t nodes = 0;
  CoreCount cores_per_node = 8;
  std::uint64_t snapshot_every = 256;
  std::int64_t tick_ms = 3'600'000;  // accelerated replay: 1 h per cycle
  std::uint64_t max_ticks = 0;
  double overlay_pct = 0.0;
  std::uint64_t overlay_seed = 2014;
  std::size_t shard_threads = 1;
  core::RoutePolicy shard_by = core::RoutePolicy::UserHash;
  batch::ShardMapKind shard_map = batch::ShardMapKind::Range;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto int_value = [&](std::int64_t min,
                               std::int64_t max = tools::kNoMax) {
      const auto v = tools::int_flag(arg, next(), min, max);
      if (!v) std::exit(usage(argv[0], 2));
      return *v;
    };
    const auto count = [&](std::int64_t min) {
      return static_cast<std::uint64_t>(int_value(min));
    };
    if (arg == "--swf") swf_path = next();
    else if (arg == "--state-dir") opt.state_dir = next();
    else if (arg == "--config") config_path = next();
    else if (arg == "--nodes") nodes = count(0);
    else if (arg == "--cores-per-node")
      cores_per_node = static_cast<CoreCount>(
          int_value(1, std::numeric_limits<CoreCount>::max()));
    else if (arg == "--snapshot-every") snapshot_every = count(0);
    // Duration::millis must not overflow its microsecond count.
    else if (arg == "--tick-ms") tick_ms = int_value(1, tools::kNoMax / 1000);
    else if (arg == "--throttle-ms") opt.throttle_ms = int_value(0);
    else if (arg == "--max-jobs") opt.max_jobs = count(0);
    else if (arg == "--max-ticks") max_ticks = count(0);
    else if (arg == "--swf-overlay-dynamic") {
      const auto pct = tools::double_flag(arg, next(), 0, 100);
      if (!pct) return usage(argv[0], 2);
      overlay_pct = *pct;
    }
    else if (arg == "--swf-seed") overlay_seed = count(0);
    else if (arg == "--summary-json") opt.summary_json = next();
    else if (arg == "--quiet") opt.quiet = true;
    else if (arg == "--shards") opt.shards = count(1);
    else if (arg == "--shard-threads") shard_threads = count(1);
    else if (arg == "--shard-by") {
      const auto by = tools::shard_by_flag(next());
      if (!by) return 2;
      shard_by = *by;
    }
    else if (arg == "--shard-map") {
      const auto map = tools::shard_map_flag(next());
      if (!map) return 2;
      shard_map = *map;
    }
    else if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }
  if (swf_path.empty()) return usage(argv[0], 2);

  std::ifstream swf_in(swf_path, std::ios::binary);
  if (!swf_in) {
    std::cerr << "cannot open " << swf_path << "\n";
    return 1;
  }
  wl::swf::SwfSourceConfig swf_config;
  swf_config.overlay_dynamic_fraction = overlay_pct / 100.0;
  swf_config.overlay_seed = overlay_seed;
  wl::swf::SwfSource source(swf_in, swf_config);
  tools::size_cluster_for_swf(source, nodes, cores_per_node);

  batch::SystemConfig system_config;
  if (!config_path.empty() &&
      !tools::load_maui_config(config_path, system_config.scheduler))
    return 1;
  system_config.cluster.node_count = nodes;
  system_config.cluster.cores_per_node = cores_per_node;
  // The durable service requires both: snapshots are taken at quiescent
  // drain boundaries (zero latency) and must stay bounded (streaming).
  system_config.latency = rms::LatencyModel::zero();
  system_config.streaming_metrics = true;
  system_config.retire_finished_jobs = true;

  svc::ServiceConfig service_config;
  service_config.state_dir = opt.state_dir;
  service_config.snapshot_every = snapshot_every;
  service_config.tick = Duration::millis(tick_ms);
  service_config.wall_sleep = std::chrono::microseconds(100);
  service_config.max_ticks = max_ticks;

  svc::IngestQueue ingest;
  if (opt.shards > 1) {
    batch::ShardConfig shard_config;
    shard_config.shards = opt.shards;
    shard_config.map = shard_map;
    shard_config.policy = shard_by;
    shard_config.threads = shard_threads;
    batch::ShardedSystem sharded(system_config, shard_config);
    svc::ShardedService service(sharded, ingest, service_config);
    return serve(service, ingest, source, opt,
                 [&] { return sharded.summary(); });
  }
  batch::BatchSystem system(system_config);
  svc::ServiceLoop& service = system.attach_ingest(ingest, service_config);
  return serve(service, ingest, source, opt,
               [&] { return metrics::summarize(system.recorder()); });
}

}  // namespace

int main(int argc, char** argv) {
  // Whatever escapes the tool — a rejected precondition, an allocation or
  // thread-start failure — is reported and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dbsd: " << e.what() << "\n";
    return 1;
  }
}
