// The stages of the scheduler pipeline.
//
// MauiScheduler::iterate() runs six functions in order over one
// IterationContext, one per step group of the paper's Algorithm 2; each is
// named after its stage_names() entry:
//
//   gather          steps 2-3   snapshot queues, rebuild profiles
//   statistics      steps 4-5   fairshare usage, DFS interval roll
//   prioritize      steps 6-9   eligibility + priority order
//   classify        step 10     tentative plan, StartNow/StartLater
//   admission       steps 11-24 FIFO dynamic requests, DFS verdicts
//   start_backfill  steps 25-26 start + reserve + backfill
//
// Stages communicate only through the IterationContext and emit decisions
// through ctx.applier (never by calling the server mutators directly), so
// the same pipeline serves live iterations and dry-run what-if passes.
#pragma once

#include "core/pipeline/iteration_context.hpp"

namespace dbs::core {

/// Steps 2-3: obtain resource/workload information from the server — the
/// FIFO snapshot of pending dynamic requests and the availability profiles
/// (physical and partition-clamped planning) every later stage plans
/// against.
void gather(IterationContext& ctx);

/// Steps 4-5: charge running jobs' usage since ctx.last_usage_update into
/// fairshare, then roll the fairshare decay windows and the DFS
/// delay-budget intervals forward to now.
void statistics(IterationContext& ctx);

/// Steps 6-9: select eligible static jobs and order them by priority
/// (multi-factor weights + fairshare); detect ESP Z drain mode (an
/// exclusive-priority job is queued).
void prioritize(IterationContext& ctx);

/// Step 10: plan static jobs without starting them, classifying StartNow /
/// StartLater up to max(ReservationDepth, ReservationDelayDepth), and fix
/// the protected set (Fig. 5) the fairness policies will judge this
/// iteration's dynamic requests against.
void classify(IterationContext& ctx);

/// Steps 11-24: process the iteration's dynamic requests in FIFO order.
/// For each live request: measure the delays a tentative grant would cause
/// to the protected jobs (optionally freeing cores first via malleable
/// shrinking or preemption), consult the DFS policies, then emit a
/// GrantDyn or RejectDyn decision through ctx.applier.
void admission(IterationContext& ctx);

/// Steps 25-26: plan static jobs against the post-admission profile, start
/// the StartNow set in priority order (reservations only up to
/// ReservationDepth) and backfill the remainder. The step-10 plan is
/// reused when it was planned at ReservationDepth and admission changed
/// none of its inputs; otherwise the stage re-plans.
void start_backfill(IterationContext& ctx);

/// Fills ctx.prioritized with the eligible static jobs (every queued job,
/// clamped to the first max_eligible_per_user per user when that cap is
/// configured), highest priority first, and returns whether one has
/// exclusive priority. Incremental planning orders them by
/// PriorityEngine::order (one key per job) and, under check_invariants,
/// compares that with the comparator sort the rebuild path runs.
bool prioritize_eligible(IterationContext& ctx);

}  // namespace dbs::core
