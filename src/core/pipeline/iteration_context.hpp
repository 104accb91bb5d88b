// Shared state of the scheduler pipeline.
//
// The IterationContext holds (a) the wiring every stage needs: the server,
// the config, the long-lived engines (fairshare, priority, DFS, the
// optional physical-profile tracker), the DecisionApplier that executes
// decisions against the server and the observability sinks; (b) the
// iteration-scoped values stages hand to each other (prioritized jobs,
// plan options, the drain flag); (c) the fairshare usage watermark, which
// persists across passes; and (d) the reusable scratch that keeps the hot
// path allocation-free after warm-up (profiles, plans, the measurement,
// JSON buffers). One context is created per scheduler and re-armed by
// begin_iteration() for every pass.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/availability_profile.hpp"
#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"
#include "core/priority.hpp"
#include "core/tail_staircase.hpp"
#include "obs/sinks.hpp"
#include "rms/decision_applier.hpp"

namespace dbs::core {

class DfsEngine;
class Fairshare;
class PhysicalProfileTracker;
struct SchedulerConfig;

/// Number of pipeline stages (one per Algorithm-2 step group).
inline constexpr std::size_t kStageCount = 6;

/// Stage names in execution order; indexes stage_wall_us.
[[nodiscard]] const std::array<std::string_view, kStageCount>& stage_names();

/// Counters describing one scheduling iteration (for tests and metrics).
struct IterationStats {
  Time at;
  std::size_t eligible_static = 0;
  std::size_t eligible_dynamic = 0;
  std::size_t started = 0;
  std::size_t backfilled = 0;
  std::size_t reservations = 0;
  std::size_t dyn_granted = 0;
  std::size_t dyn_rejected = 0;
  std::size_t dyn_deferred = 0;  ///< negotiation: request kept queued
  std::size_t preempted = 0;
  std::size_t malleable_shrinks = 0;
  /// Planned StartNow jobs defeated by node-level fragmentation.
  std::size_t start_failed = 0;
  /// Jobs the planning walks planned (earliest fit) or judged (tail
  /// staircase) this pass.
  std::uint64_t replanned_jobs = 0;
  /// Wall-clock cost of the iteration in microseconds (host time, not
  /// simulated time).
  double wall_us = 0.0;
  /// Per-stage wall-clock breakdown (host microseconds), indexed like
  /// stage_names(). Timed on wall_us's clock inside its span, so it sums
  /// to wall_us minus orchestration overhead, never more.
  std::array<double, kStageCount> stage_wall_us{};
};

struct IterationContext {
  /// The engines are the caller's and must outlive the context; `tracker`
  /// is null when incremental planning is off. The usage watermark starts
  /// at the server's current time.
  IterationContext(rms::Server& server_ref, const SchedulerConfig& config_ref,
                   Fairshare& fairshare_ref, PriorityEngine& priority_ref,
                   DfsEngine& dfs_ref, PhysicalProfileTracker* tracker_ref);

  IterationContext(const IterationContext&) = delete;
  IterationContext& operator=(const IterationContext&) = delete;

  /// Re-arms the context for one pass: resets the stats and the decision
  /// stream, keeps all scratch storage.
  void begin_iteration(Time at, std::uint64_t iteration_number, bool dry_run);

  /// Rebuilds `physical` in place from the running set and down nodes:
  /// capacity minus running jobs (to each job's walltime end) minus
  /// down-node capacity.
  void rebuild_physical_profile();

  /// Re-derives `planning` from `physical` (dynamic-partition clamp).
  void rebuild_planning_profile(CoreCount dynamic_partition_cores);

  // --- wiring --------------------------------------------------------------
  rms::Server& server;
  const SchedulerConfig& config;
  Fairshare& fairshare;
  PriorityEngine& priority;
  DfsEngine& dfs;
  /// Persistent physical profile; null when incremental planning is off
  /// (the gather stage then rebuilds from the running set).
  PhysicalProfileTracker* tracker;
  rms::DecisionApplier applier;
  /// sinks.tracer may be null (tracing off); sinks.registry is always
  /// resolved to a concrete registry by MauiScheduler::set_sinks.
  obs::Sinks sinks;
  /// The admission stage's delay-measurement depth histogram, resolved
  /// from sinks.registry on first use and cleared by
  /// MauiScheduler::set_sinks (see obs::lazy_histogram).
  obs::Histogram* measure_depth = nullptr;

  // --- iteration-scoped values (reset by begin_iteration) ------------------
  Time now;
  std::uint64_t iteration = 0;
  IterationStats stats;
  /// An exclusive-priority (ESP Z) job is queued: drain mode.
  bool drain = false;
  /// Idle cores right now; kept in lockstep with grants/preemptions/shrinks
  /// during the admission loop.
  CoreCount physical_free = 0;
  /// Step-10 plan options (delay_plan_depth); fixed for the whole pass.
  PlanOptions measure_opts{};
  /// Eligible static jobs, highest priority first.
  std::vector<const rms::Job*> prioritized;
  /// The admission stage replaced `planning`, `prioritized` or
  /// `baseline_plan` (a grant, a malleable steal, a preemption), so the
  /// step-10 plan no longer answers for the start stage.
  bool admission_changed_plan = false;

  // --- persists across iterations ------------------------------------------
  /// The statistics stage's usage-charge watermark: running jobs are
  /// charged into fairshare for the time since it. Durable snapshots carry
  /// it, or the first post-recovery iteration would double-charge.
  Time last_usage_update;

  // --- reusable scratch (persists across iterations) -----------------------
  /// Physical availability: patched incrementally on grant/shrink/preempt
  /// during the admission loop instead of being rebuilt from the job list.
  AvailabilityProfile physical;
  /// `physical` with the dynamic-partition clamp applied.
  AvailabilityProfile planning;
  /// Step-10 classification (StartNow/StartLater). Admission re-plans it
  /// after a state change; the start stage starts and reserves from it,
  /// re-planning it at ReservationDepth first when its inputs changed.
  Plan baseline_plan;
  /// Tail staircase shared by every walk of a pass; its count resets per
  /// iteration.
  TailStaircase staircase;
  /// PriorityEngine::order's keys, one per eligible job.
  std::vector<PriorityKey> priority_keys;
  /// The Fig. 5 protected set, in priority order: read off the step-10
  /// plan, kept across grants, recomputed by a steal's or preemption's
  /// re-plan.
  std::vector<const rms::Job*> protected_jobs;
  std::vector<rms::DynRequest> requests;  ///< FIFO snapshot of this pass
  DelayMeasurement measure;
  MeasureScratch measure_scratch;
  std::string json_scratch;
};

}  // namespace dbs::core
