// dbsim — run a workload trace through the dynamic batch system
// (`dbsim --help` lists the flags).
//
// The trace format is documented in src/workload/trace.hpp (write one with
// `esp_campaign --trace`). The config file uses the Maui-style syntax of
// the paper's Fig. 6 (see src/config/maui_config.hpp). --trace-out captures
// a structured scheduler event trace (--trace-format chrome emits Chrome
// trace-event JSON loadable in Perfetto / chrome://tracing); --metrics-json
// snapshots the run's metrics registry on exit (`-` writes it to stdout).
// --record-out captures the run as a binary flight-recorder file (every
// lifecycle event + every applied scheduler decision, indexed by job and
// time; query it with dbsq).
//
// Sharded scheduling: --shards K partitions the cluster's nodes into K
// shards (--shard-map range|hash), each scheduled by its own independent
// scheduler stack, and routes every submission to exactly one shard
// (--shard-by: hash/user = fnv1a(user) % K, partition = job class name
// matched against shard names part0..partK-1, least = deterministic
// least-loaded). --shard-threads T runs the K shard simulations on T
// threads; the output (summary, metrics, per-shard records) is
// byte-identical for every T. With --record-out each shard records its own
// file (<file>, <file>.rep1, ...) and an index-ordered manifest lands in
// <file>.manifest.json.
//
// --dry-run-iteration pauses mid-run (same snapshot point as --qstat),
// runs the scheduler pipeline once in dry-run mode and prints the decision
// stream it would execute (one JSON object per line) without applying any
// of it, then resumes the simulation. --stage-breakdown prints the mean
// per-stage wall time of a scheduler iteration after the run.
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/batch_system.hpp"
#include "batch/sharded_system.hpp"
#include "core/pipeline/iteration_context.hpp"
#include "metrics/report.hpp"
#include "obs/recorder/manifest.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "rms/decision.hpp"
#include "rms/status.hpp"
#include "workload/swf/swf_source.hpp"
#include "workload/trace.hpp"

#include "flags.hpp"
#include "run_options.hpp"

using namespace dbs;

namespace {

/// Mean per-stage wall time from the run's merged registry, one line,
/// plus the jobs the planning walks planned or judged.
void print_stage_breakdown(const obs::Registry& registry) {
  std::cout << "stage breakdown (mean us/iteration):";
  for (const std::string_view name : core::stage_names()) {
    const obs::Histogram* h = registry.find_histogram(
        std::string("scheduler.stage_iteration_us.") + std::string(name));
    std::cout << " " << name << "=";
    if (h == nullptr || h->count() == 0)
      std::cout << "n/a";
    else
      std::cout << TextTable::num(h->sum() / static_cast<double>(h->count()),
                                  3);
  }
  const obs::Counter* replanned =
      registry.find_counter("scheduler.replanned_jobs");
  std::cout << " replanned_jobs="
            << (replanned == nullptr ? 0 : replanned->value());
  std::cout << "\n";
}

int run(int argc, char** argv) {
  std::string trace_path;
  std::string swf_path;
  double swf_overlay_pct = 0.0;
  wl::swf::SwfSourceConfig swf_config;
  bool swf_materialize = false;
  std::string config_path;
  std::string csv_path;
  std::string trace_out_path;
  std::string metrics_json_path;
  std::string record_out_path;
  obs::TraceFormat trace_format = obs::TraceFormat::Jsonl;
  std::size_t nodes = 0;
  CoreCount cores_per_node = 8;
  bool qstat = false;
  bool dry_run_iteration = false;
  bool stage_breakdown = false;
  batch::ShardConfig shard_config;

  tools::Flags flags("dbsim", "Replays exactly one of --trace and --swf.");
  flags.text("--trace", trace_path, "FILE",
             "workload trace (src/workload/trace.hpp)");
  flags.text("--swf", swf_path, "FILE",
             "Standard Workload Format trace, streamed");
  flags.number("--swf-overlay-dynamic", swf_overlay_pct, 0, 100, "PCT",
               "percent of SWF jobs replayed as evolving");
  flags.integer("--swf-seed", swf_config.overlay_seed, 0, "S",
                "seed of the evolving overlay");
  flags.choice("--swf-policy", swf_config.policy,
               {{"skip", wl::swf::MalformedPolicy::Skip},
                {"strict", wl::swf::MalformedPolicy::Strict}},
               "skip malformed SWF records or stop at the first");
  flags.flag("--swf-materialize", swf_materialize,
             "read the whole SWF trace before the run and keep per-job "
             "records");
  flags.text("--config", config_path, "FILE",
             "Maui-style scheduler config (src/config/maui_config.hpp)");
  flags.integer("--nodes", nodes, 0, "N",
                "cluster nodes; 0 sizes the cluster for the trace");
  flags.integer("--cores-per-node", cores_per_node, 1, "N", "cores per node");
  flags.flag("--qstat", qstat, "print qstat and pbsnodes mid-run");
  flags.flag("--dry-run-iteration", dry_run_iteration,
             "print the decisions of one unapplied iteration mid-run");
  flags.flag("--stage-breakdown", stage_breakdown,
             "print the mean wall time of each scheduler stage");
  flags.text("--csv", csv_path, "FILE", "write per-job waits as CSV");
  flags.text("--trace-out", trace_out_path, "FILE",
             "write the scheduler event trace");
  flags.choice("--trace-format", trace_format,
               {{"jsonl", obs::TraceFormat::Jsonl},
                {"chrome", obs::TraceFormat::Chrome}},
               "event trace format");
  flags.text("--metrics-json", metrics_json_path, "FILE|-",
             "write the metrics registry as JSON");
  flags.text("--record-out", record_out_path, "FILE",
             "write a flight-recorder file (query it with dbsq)");
  tools::shard_flags(flags, shard_config);
  if (const std::optional<int> stop = flags.parse(argc, argv)) return *stop;

  if (trace_path.empty() == swf_path.empty())
    return flags.fail("exactly one of --trace and --swf is required");
  if (!swf_path.empty()) {
    if (qstat || dry_run_iteration)
      return flags.fail(
          "--qstat/--dry-run-iteration are not supported with --swf");
    if (!csv_path.empty() && !swf_materialize)
      return flags.fail(
          "--csv needs per-job records; use --swf-materialize (the "
          "streaming path folds finished jobs into aggregates)");
  }
  // `-` conventionally means stdout; the recorder writes an indexed binary
  // file and cannot stream, so reject it instead of creating a file
  // literally named "-". (--trace-out stays file-only: its formats are
  // stream-shaped but the tracer owns the file lifecycle.)
  if (record_out_path == "-")
    return flags.fail(
        "--record-out cannot write to stdout (`-`): the recorder emits an "
        "indexed binary file; give it a path");
  const std::size_t shards = shard_config.shards;
  if (shards > 1 && (qstat || dry_run_iteration || !csv_path.empty()))
    return flags.fail(
        "--shards is incompatible with --qstat, --dry-run-iteration and "
        "--csv (per-shard job indices are not comparable)");

  wl::Workload workload;
  if (!trace_path.empty()) {
    workload = wl::trace_from_string(tools::slurp(trace_path));
    if (workload.jobs.empty()) {
      std::cerr << "trace contains no jobs\n";
      return 1;
    }
  }

  batch::SystemConfig system_config;
  if (!config_path.empty() &&
      !tools::load_maui_config(config_path, system_config.scheduler))
    return 1;
  // Streaming SWF replay: open the trace and read its header directives
  // now, so --nodes 0 can size the cluster from MaxProcs.
  std::ifstream swf_in;
  std::unique_ptr<wl::swf::SwfSource> swf_source;
  if (!swf_path.empty()) {
    swf_in.open(swf_path, std::ios::binary);
    if (!swf_in) {
      std::cerr << "cannot open " << swf_path << "\n";
      return 1;
    }
    swf_config.overlay_dynamic_fraction = swf_overlay_pct / 100.0;
    swf_source = std::make_unique<wl::swf::SwfSource>(swf_in, swf_config);
    tools::size_cluster_for_swf(*swf_source, nodes, cores_per_node);
    // Multi-month traces only fit if finished jobs release their storage
    // and metrics fold into aggregates as the replay advances.
    system_config.retire_finished_jobs = !swf_materialize;
    system_config.streaming_metrics = !swf_materialize;
    if (swf_materialize) {
      // Debug/equivalence path: drain the source into a Workload and
      // submit it the classic way (per-job records retained).
      wl::SubmitSpec s;
      while (swf_source->next(s)) workload.jobs.push_back(s);
    }
  }
  const bool stream = swf_source != nullptr && !swf_materialize;
  if (nodes == 0) {
    const CoreCount total =
        workload.total_cores > 0 ? workload.total_cores : 128;
    nodes = static_cast<std::size_t>((total + cores_per_node - 1) /
                                     cores_per_node);
  }
  // Operator tooling always records the per-stage breakdown; the span
  // overhead only matters in benchmark hot loops.
  system_config.scheduler.stage_timing = true;
  system_config.cluster.node_count = nodes;
  system_config.cluster.cores_per_node = cores_per_node;

  obs::Registry registry;
  obs::Tracer tracer;
  if (!trace_out_path.empty()) {
    if (!tracer.open(trace_out_path, trace_format)) {
      std::cerr << "cannot open " << trace_out_path << "\n";
      return 1;
    }
  }

  // One recorder per shard (an unsharded run is shard 0): concurrent
  // shards never share a record file.
  std::vector<std::unique_ptr<obs::rec::FlightRecorder>> recorders;
  if (!record_out_path.empty()) {
    recorders = tools::open_recorders(record_out_path, system_config.cluster,
                                      shard_config);
    if (recorders.empty()) return 1;
  }
  const auto recorder_of = [&](std::size_t k) {
    return recorders.empty() ? nullptr : recorders[k].get();
  };
  // The event trace attaches to shard 0 only — concurrent shard writers
  // would interleave events nondeterministically.
  obs::Tracer* const trace_sink = trace_out_path.empty() ? nullptr : &tracer;

  metrics::WorkloadSummary summary;
  std::vector<metrics::WaitPoint> waits;
  std::vector<metrics::WorkloadSummary> shard_summaries;
  std::vector<std::uint64_t> shard_routed_jobs;
  if (shards > 1) {
    batch::ShardedSystem sharded(system_config, shard_config);
    for (std::size_t k = 0; k < shards; ++k) {
      obs::Tracer* shard_tracer = k == 0 ? trace_sink : nullptr;
      if (shard_tracer != nullptr || recorder_of(k) != nullptr)
        sharded.set_shard_sinks(k, shard_tracer, recorder_of(k));
    }
    if (stream)
      sharded.submit_stream(*swf_source);
    else
      sharded.submit_workload(workload);
    sharded.run();
    summary = sharded.summary();
    sharded.merge_registries(registry);
    for (std::size_t k = 0; k < shards; ++k) {
      shard_summaries.push_back(sharded.shard_summary(k));
      shard_routed_jobs.push_back(sharded.router().routed_jobs(k));
    }
  } else {
    batch::BatchSystem system(system_config);
    system.set_sinks({trace_sink, &registry, recorder_of(0)});
    if (stream)
      system.submit_stream(*swf_source);
    else
      system.submit_workload(workload);
    // Pause mid-run (after the first quarter of the submission window) for
    // the status snapshot / what-if pass before finishing the simulation.
    const Time snapshot =
        swf_source != nullptr
            ? Time::epoch()
            : workload.jobs.back().at - (workload.jobs.back().at -
                                         workload.jobs.front().at) / 4 * 3;
    if (qstat || dry_run_iteration) system.run_until(snapshot);
    if (qstat)
      std::cout << "--- qstat @ " << snapshot.to_string() << " ---\n"
                << rms::format_qstat(system.server()) << "\n"
                << rms::format_pbsnodes(system.server()) << "\n"
                << rms::format_load_summary(system.server()) << "\n\n";
    if (dry_run_iteration) {
      const std::vector<rms::Decision> decisions =
          system.scheduler().dry_run_iteration();
      std::cout << "--- dry-run iteration @ " << snapshot.to_string() << " ("
                << decisions.size() << " decisions, not applied) ---\n";
      std::string line;
      for (const rms::Decision& d : decisions) {
        line.clear();
        rms::decision_to_json(d, line);
        std::cout << line << "\n";
      }
      std::cout << "\n";
    }
    system.run();
    summary = metrics::summarize(system.recorder());
    if (!system.recorder().streaming())
      waits = metrics::wait_series(system.recorder());
  }
  obs::rec::Manifest manifest;
  for (std::size_t k = 0; k < recorders.size(); ++k) {
    obs::rec::FlightRecorder& recorder = *recorders[k];
    obs::rec::ManifestShard shard;
    shard.path = recorder.path();
    shard.replication = k;
    shard.records = recorder.records_written();
    shard.first_t_us = recorder.first_t_us();
    shard.last_t_us = recorder.last_t_us();
    if (!recorder.finalize()) {
      std::cerr << "cannot finalize " << shard.path << "\n";
      return 1;
    }
    manifest.shards.push_back(std::move(shard));
  }

  const std::string& workload_label =
      trace_path.empty() ? swf_path : trace_path;
  TextTable table(metrics::performance_header());
  table.add_row(metrics::performance_row(workload_label, summary, 0.0));
  std::cout << table.to_string();
  std::cout << "avg wait " << summary.avg_wait.to_hms() << ", max wait "
            << summary.max_wait.to_hms() << ", backfilled "
            << summary.backfilled_jobs << ", evolving "
            << summary.evolving_jobs << " (satisfied "
            << summary.satisfied_dyn_jobs << ")\n";
  if (swf_source != nullptr) {
    const wl::swf::SwfParser& parser = swf_source->parser();
    std::cout << "swf replay: " << swf_source->yielded() << " jobs from "
              << parser.records() << " records (" << parser.malformed()
              << " malformed, " << swf_source->unusable() << " unusable, "
              << swf_source->clamped_cores() << " width-clamped, "
              << swf_source->clamped_times() << " time-clamped), overlay "
              << swf_source->overlay_marked() << " dynamic, "
              << swf_source->distinct_users() << " users / "
              << swf_source->distinct_groups() << " groups / "
              << swf_source->distinct_queues() << " queues, window "
              << (swf_materialize ? std::string("materialized")
                                  : std::to_string(batch::kSubmissionWindow))
              << "\n";
  }
  if (shards > 1) {
    TextTable shard_table(metrics::performance_header());
    for (std::size_t k = 0; k < shard_summaries.size(); ++k)
      shard_table.add_row(metrics::performance_row(
          "part" + std::to_string(k), shard_summaries[k], 0.0));
    std::cout << shard_table.to_string();
    std::cout << "shard routing (" << core::to_string(shard_config.policy) << "):";
    for (std::size_t k = 0; k < shard_routed_jobs.size(); ++k)
      std::cout << " part" << k << "=" << shard_routed_jobs[k];
    std::cout << "; metrics merged across " << shards << " shards\n";
  }
  if (stage_breakdown) print_stage_breakdown(registry);

  if (!csv_path.empty()) {
    TextTable csv({"submit_index", "name", "wait_seconds"});
    for (const auto& w : waits)
      csv.add_row({std::to_string(w.submit_index), w.name,
                   TextTable::num(w.wait.as_seconds(), 3)});
    std::ofstream out(csv_path);
    out << csv.to_csv();
    std::cout << "wrote per-job waits to " << csv_path << "\n";
  }

  if (!record_out_path.empty()) {
    // Shards are finalized; make the trace durable alongside them so the
    // record/trace pair on disk is consistent at this point.
    tracer.flush();
    std::cout << "recorded " << manifest.total_records() << " records to "
              << record_out_path;
    if (manifest.shards.size() > 1) {
      const std::string manifest_path = record_out_path + ".manifest.json";
      if (!manifest.write(manifest_path)) {
        std::cerr << "cannot open " << manifest_path << "\n";
        return 1;
      }
      std::cout << " (" << manifest.shards.size() << " shards, manifest "
                << manifest_path << ")";
    }
    std::cout << "\n";
  }
  if (!trace_out_path.empty()) {
    tracer.close();
    std::cout << "wrote " << tracer.events_emitted() << " trace events to "
              << trace_out_path << "\n";
  }
  if (!metrics_json_path.empty()) {
    if (metrics_json_path == "-") {
      registry.write_json(std::cout);
    } else if (!registry.write_json_file(metrics_json_path)) {
      std::cerr << "cannot open " << metrics_json_path << "\n";
      return 1;
    } else {
      std::cout << "wrote metrics snapshot to " << metrics_json_path << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Whatever escapes the tool — a rejected precondition, an allocation or
  // thread-start failure — is reported and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dbsim: " << e.what() << "\n";
    return 1;
  }
}
