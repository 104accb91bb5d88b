// `dbsd`: the always-on batch service daemon (`dbsd --help` lists the
// flags).
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
#include <optional>
#include <string>
#include <thread>

#include "batch/batch_system.hpp"
#include "batch/sharded_system.hpp"
#include "metrics/report.hpp"
#include "svc/ingest.hpp"
#include "svc/service_loop.hpp"
#include "svc/sharded_service.hpp"
#include "workload/swf/swf_source.hpp"

#include "flags.hpp"
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

/// What the command line sets for the service run, besides the system.
struct Options {
  svc::ServiceConfig service;
  batch::ShardConfig shards;
  std::string summary_json;
  std::int64_t throttle_ms = 0;
  std::uint64_t max_jobs = 0;
  bool quiet = false;
};

/// Recovers `service` (a svc::ServiceLoop or a svc::ShardedService), feeds
/// it the trace from a producer thread the way qsub shims would, runs it to
/// the end and reports. `summarize` yields the final workload summary.
template <class Service, class Summarize>
int serve(Service& service, svc::IngestQueue& ingest,
          wl::swf::SwfSource& source, const Options& opt,
          const Summarize& summarize) {
  const std::size_t shards = opt.shards.shards;
  const char* shard_dirs = shards > 1 ? "/shard-*" : "";
  bool recovered = false;
  if (!opt.service.state_dir.empty()) {
    recovered = service.open();
    if (!opt.quiet && recovered)
      std::cerr << "dbsd: recovered state from " << opt.service.state_dir
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
    if (shards > 1) std::cerr << " across " << shards << " shards";
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
  opt.service.snapshot_every = 256;
  std::int64_t tick_ms = 3'600'000;  // accelerated replay: 1 h per cycle
  double overlay_pct = 0.0;
  wl::swf::SwfSourceConfig swf_config;

  tools::Flags flags("dbsd", "Serves the --swf trace (required).");
  flags.text("--swf", swf_path, "FILE",
             "SWF trace the producer feeds through the ingest queue");
  flags.text("--state-dir", opt.service.state_dir, "DIR",
             "WAL and snapshots; resumes from them; \"\" runs without "
             "durability");
  flags.text("--config", config_path, "FILE",
             "Maui-style scheduler config (src/config/maui_config.hpp)");
  flags.integer("--nodes", nodes, 0, "N",
                "cluster nodes; 0 sizes the cluster for the trace");
  flags.integer("--cores-per-node", cores_per_node, 1, "N", "cores per node");
  flags.integer("--snapshot-every", opt.service.snapshot_every, 0, "N",
                "snapshot after N decisions; 0 only at shutdown");
  // Duration::millis must not overflow its microsecond count.
  flags.integer("--tick-ms", tick_ms, 1, "MS",
                "simulated time per drain cycle, milliseconds",
                std::numeric_limits<std::int64_t>::max() / 1000);
  flags.integer("--throttle-ms", opt.throttle_ms, 0, "MS",
                "producer pause after each job, milliseconds");
  flags.integer("--max-jobs", opt.max_jobs, 0, "N",
                "feed at most the first N jobs; 0 feeds all");
  flags.integer("--max-ticks", opt.service.max_ticks, 0, "N",
                "stop after N drain cycles; 0 runs to the end");
  flags.number("--swf-overlay-dynamic", overlay_pct, 0, 100, "PCT",
               "percent of SWF jobs replayed as evolving");
  flags.integer("--swf-seed", swf_config.overlay_seed, 0, "S",
                "seed of the evolving overlay");
  flags.text("--summary-json", opt.summary_json, "FILE|-",
             "write the final workload summary as JSON");
  flags.flag("--quiet", opt.quiet, "print no progress to stderr");
  tools::shard_flags(flags, opt.shards);
  if (const std::optional<int> stop = flags.parse(argc, argv)) return *stop;
  if (swf_path.empty()) return flags.fail("--swf is required");

  std::ifstream swf_in(swf_path, std::ios::binary);
  if (!swf_in) {
    std::cerr << "cannot open " << swf_path << "\n";
    return 1;
  }
  swf_config.overlay_dynamic_fraction = overlay_pct / 100.0;
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

  opt.service.tick = Duration::millis(tick_ms);
  opt.service.wall_sleep = std::chrono::microseconds(100);

  svc::IngestQueue ingest;
  if (opt.shards.shards > 1) {
    batch::ShardedSystem sharded(system_config, opt.shards);
    svc::ShardedService service(sharded, ingest, opt.service);
    return serve(service, ingest, source, opt,
                 [&] { return sharded.summary(); });
  }
  batch::BatchSystem system(system_config);
  svc::ServiceLoop& service = system.attach_ingest(ingest, opt.service);
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
