#include <cstdio>
#include <sstream>

#include "core/pipeline/iteration_context.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

double stage_seconds(const dbs::obs::Registry& registry) {
  double s = 0.0;
  for (const std::string_view stage : dbs::core::stage_names())
    s += histogram_sum(registry, "scheduler.stage_iteration_us." + std::string(stage))
             .value_or(0.0);
  return s / 1e6;
}

void add_layer_metrics(Result& r, const LayerSample& s) {
  const LifecycleObserver& c = *s.counts;
  const dbs::obs::Registry& reg = *s.registry;
  const auto jobs = static_cast<double>(s.jobs);

  r.add("workload.us_per_job", ratio(s.workload_s * 1e6, jobs), "us");
  r.add("workload.next_calls", static_cast<double>(s.next_calls), "count");

  r.add("sim.events", static_cast<double>(s.events), "count");
  r.add("sim.events_per_job", ratio(static_cast<double>(s.events), jobs), "count");
  r.add("sim.pending_max", static_cast<double>(s.pending_max), "count");
  r.add("sim_rms.self_s", s.sim_rms_s, "s");

  r.add("rms.submits", static_cast<double>(c.submits), "count");
  r.add("rms.starts", static_cast<double>(c.starts), "count");
  r.add("rms.finishes", static_cast<double>(c.finishes), "count");
  r.add("rms.dyn_requests", static_cast<double>(c.dyn_requests), "count");
  r.add("rms.dyn_grants", static_cast<double>(c.dyn_grants), "count");
  r.add("rms.dyn_rejects", static_cast<double>(c.dyn_rejects), "count");
  r.add("rms.dyn_releases", static_cast<double>(c.dyn_releases), "count");

  r.add("core.iterations", static_cast<double>(s.iterations), "count");
  r.add("core.iterations_per_job",
        ratio(static_cast<double>(s.iterations), jobs), "count");
  r.add("core.busy_s", s.core_busy_s, "s");
  r.add("core.iter_p50_us", quantile(s.iteration_us, 0.50), "us");
  r.add("core.iter_p99_us", quantile(s.iteration_us, 0.99), "us");
  for (const std::string_view stage : dbs::core::stage_names()) {
    const std::string instrument =
        "scheduler.stage_iteration_us." + std::string(stage);
    std::optional<double> us = histogram_sum(reg, instrument);
    if (us) *us /= 1e6;
    r.add_or_missing("core.stage." + std::string(stage) + "_s", us, "s",
                     instrument);
  }
  const std::optional<double> hits =
      counter_value(reg, "scheduler.plan_cache_hits");
  const std::optional<double> replanned =
      counter_value(reg, "scheduler.replanned_jobs");
  r.add_or_missing("core.plan_cache_hit_ratio",
                   hits && replanned
                       ? std::optional<double>(ratio(*hits, *hits + *replanned))
                       : std::nullopt,
                   "fraction", "scheduler.plan_cache_hits");
  r.add_or_missing("core.replanned_jobs", replanned, "count",
                   "scheduler.replanned_jobs");
  // No dynamic request means nothing was measured and the histogram is
  // never registered: the mean depth is 0 rather than missing.
  r.add_or_missing("core.delay_measure_depth_mean",
                   c.dyn_requests == 0
                       ? std::optional<double>(0.0)
                       : histogram_mean(reg, "scheduler.delay_measure_depth"),
                   "count", "scheduler.delay_measure_depth");
  r.add("core.dyn_grant_ratio",
        ratio(static_cast<double>(c.dyn_grants),
              static_cast<double>(c.dyn_requests)),
        "fraction");

  r.add("cluster.placements", static_cast<double>(c.placements), "count");
  r.add("cluster.releases", static_cast<double>(c.releases), "count");
}

void add_svc_metrics(Result& r, const SvcSample& s) {
  r.add("svc.ticks", static_cast<double>(s.ticks), "count");
  r.add("svc.records_per_tick", s.records_per_tick, "count");
  r.add("svc.ingest_depth_max", static_cast<double>(s.ingest_depth_max), "count");
  r.add("svc.snapshots", static_cast<double>(s.snapshots), "count");
  r.add("svc.snapshot_bytes", static_cast<double>(s.snapshot_bytes), "bytes");
  r.add("svc.wal_bytes_per_job", s.wal_bytes_per_job, "bytes");
  r.add("svc.recover_replayed", static_cast<double>(s.recover_replayed), "count");
  if (s.ticks == 0) return;  // no svc code ran: nothing was timed
  r.report_only.push_back({"svc.tick_p99_us", s.tick_p99_us, "us"});
  r.report_only.push_back({"svc.tick_busy_s", s.tick_busy_s, "s"});
  r.report_only.push_back({"svc.push_p99_us", s.push_p99_us, "us"});
  r.report_only.push_back({"svc.gen_lag_p99_ms", s.gen_lag_p99_ms, "ms"});
  r.report_only.push_back({"svc.cold_open_ms", s.cold_open_ms, "ms"});
  r.report_only.push_back({"svc.ack_p50_ms", s.ack_p50_ms, "ms"});
  r.report_only.push_back({"svc.ack_p99_ms", s.ack_p99_ms, "ms"});
}

void add_layer_table(Result& r, const std::string& title, double wall_s,
                     double jobs,
                     const std::vector<std::pair<std::string, double>>& layers,
                     const std::string& residual_name, double residual_s) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "layer table: %s, traced wall %.4f s\n",
                title.c_str(), wall_s);
  os << line;
  std::snprintf(line, sizeof(line), "  %-34s %10s %10s %8s\n", "layer",
                "self_s", "us/job", "%wall");
  os << line;
  double sum = residual_s;
  const auto row = [&](const std::string& name, double s) {
    std::snprintf(line, sizeof(line), "  %-34s %10.4f %10.3f %7.1f%%\n",
                  name.c_str(), s, ratio(s * 1e6, jobs), 100.0 * ratio(s, wall_s));
    os << line;
  };
  for (const auto& [name, s] : layers) {
    row(name, s);
    sum += s;
  }
  row("residual: " + residual_name, residual_s);
  std::snprintf(line, sizeof(line), "  %-34s %10.4f %10s %7.1f%%", "sum", sum,
                "", 100.0 * ratio(sum, wall_s));
  os << line;
  r.notes.push_back(os.str());
}

}  // namespace pb
