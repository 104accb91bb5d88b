// Shared state of one scheduler pipeline pass.
//
// The IterationContext owns (a) the iteration-scoped values stages hand to
// each other (prioritized jobs, plan options, the drain flag), (b) the
// reusable scratch that used to live as MauiScheduler members so the hot
// path allocates nothing after warm-up (profiles, plans, the measurement,
// JSON buffers), and (c) the wiring every stage needs: the
// DecisionApplier that executes decisions against the server and the
// observability sinks. One context is created per scheduler and re-armed
// by begin_iteration() for every pass.
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
  /// stage_names(). Sums to roughly wall_us minus orchestration overhead.
  std::array<double, kStageCount> stage_wall_us{};
};

struct IterationContext {
  explicit IterationContext(rms::Server& server_ref);

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
