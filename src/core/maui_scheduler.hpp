// The extended Maui scheduler (paper Algorithm 2), organized as an
// explicit stage pipeline: each iteration runs six functions in order over
// one IterationContext (core/pipeline/stages.hpp), each named after its
// stage:
//
//   gather          obtain resource / workload information from the server
//   statistics      update statistics (fairshare usage, DFS interval roll)
//   prioritize      select + prioritize eligible static jobs (priority
//                   factors); dynamic requests stay FIFO
//   classify        schedule static jobs WITHOUT starting them, classifying
//                   StartNow / StartLater up to
//                   max(ReservationDepth, ReservationDelayDepth)
//   admission       for every dynamic request: try idle resources
//                   (optionally shrink/preempt), measure delays to the
//                   protected jobs, consult the DFS policies, then grant or
//                   reject
//   start_backfill  schedule + start static jobs in priority order
//                   (reservations up to ReservationDepth), backfill the rest
//
// Stages emit typed decisions through the context's DecisionApplier rather
// than calling the server directly; dry_run_iteration() runs the same six
// functions with the applier in dry-run mode to answer "what would the
// next iteration do" without changing any state. The scheduler owns the
// context and the engines it points at (fairshare, priority, DFS, the
// incremental physical-profile tracker). With no dynamic requests
// pending the pipeline degenerates exactly into the classic Maui iteration
// (Algorithm 1).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/availability_profile.hpp"
#include "core/dfs_engine.hpp"
#include "core/fairshare.hpp"
#include "core/pipeline/iteration_context.hpp"
#include "core/physical_profile.hpp"
#include "core/priority.hpp"
#include "core/scheduler_config.hpp"
#include "obs/sinks.hpp"
#include "rms/server.hpp"

namespace dbs::core {

/// Fixed-capacity ring of the most recent IterationStats. Appending is O(1)
/// with zero steady-state allocation — unlike a vector front-erase (shifts
/// the whole window) or a deque (allocates a chunk every couple of pushes
/// of this ~200-byte struct). Entries are indexed oldest first.
class IterationHistory {
 public:
  explicit IterationHistory(std::size_t capacity) : capacity_(capacity) {}

  void push(const IterationStats& stats) {
    if (items_.size() < capacity_) {
      items_.push_back(stats);
      return;
    }
    items_[head_] = stats;
    head_ = (head_ + 1) % capacity_;
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  /// The i-th oldest retained entry.
  [[nodiscard]] const IterationStats& operator[](std::size_t i) const {
    return items_[(head_ + i) % items_.size()];
  }
  [[nodiscard]] const IterationStats& back() const {
    return (*this)[items_.size() - 1];
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest entry once full
  std::vector<IterationStats> items_;
};

class MauiScheduler {
 public:
  MauiScheduler(rms::Server& server, SchedulerConfig config);

  MauiScheduler(const MauiScheduler&) = delete;
  MauiScheduler& operator=(const MauiScheduler&) = delete;

  /// Registers the server wake-up trigger and the poll timer. Call once.
  void attach();

  /// Runs one scheduling iteration now.
  void iterate();

  /// Runs the full pipeline in dry-run mode: decisions are recorded but
  /// not applied, so no job starts, no request is granted or rejected, no
  /// DFS budget is consumed, and no trace/metrics iteration is recorded.
  /// Returns the decision stream the next live iteration would open with.
  [[nodiscard]] std::vector<rms::Decision> dry_run_iteration();

  /// Retained per-iteration history (capped at `kHistoryCap` entries; the
  /// oldest iterations are dropped first); back() is the latest iteration.
  [[nodiscard]] const IterationHistory& history() const { return history_; }
  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }
  [[nodiscard]] const DfsEngine& dfs() const { return dfs_; }
  [[nodiscard]] const Fairshare& fairshare() const { return fairshare_; }

  /// Observability sinks: the tracer (nullable — null disables tracing)
  /// receives iteration, classification and per-request decision-audit
  /// events; the registry (null selects the global one) receives iteration
  /// counters/histograms, per-stage timings and queue gauges. Forwarded to
  /// the DFS engine.
  void set_sinks(const obs::Sinks& sinks);
  [[nodiscard]] const obs::Sinks& sinks() const { return ctx_.sinks; }

  /// Iterations retained in history().
  static constexpr std::size_t kHistoryCap = 4096;

  // --- durable-state surface (svc::StateStore) ----------------------------
  /// Scheduler-side service state: everything an iteration builds on that
  /// is not derivable from the server. Per-iteration planning artifacts
  /// (reservation tables, the tail staircase, availability profiles) are
  /// deliberately absent — they are rebuilt from the restored server state
  /// on the first post-recovery iteration.
  struct ServiceState {
    std::uint64_t iterations = 0;
    Time last_usage_update;
    bool poll_pending = false;
    Time poll_at;
    Fairshare::State fairshare;
    DfsEngine::State dfs;

    [[nodiscard]] bool operator==(const ServiceState&) const = default;
  };
  [[nodiscard]] ServiceState save_service_state() const;
  /// Restores into a freshly constructed scheduler with the same config:
  /// fairshare/DFS ledgers and the usage watermark are loaded, the poll
  /// timer re-armed at its recorded absolute time, and the incremental
  /// physical profile rebuilt from the restored server.
  void restore_service_state(const ServiceState& s);

  /// Per-decision write-ahead hook, forwarded to the DecisionApplier:
  /// called once per executed (never dry-run) decision, in emission order.
  void set_decision_sink(std::function<void(const rms::Decision&)> sink) {
    ctx_.applier.set_decision_sink(std::move(sink));
  }

  ~MauiScheduler();

 private:
  /// Runs the six stage functions in order, recording per-stage tick
  /// deltas into ctx_.stats.stage_wall_us when stage timing is on.
  void run_pipeline();
  void schedule_poll();
  void record_iteration(const IterationStats& stats);

  rms::Server& server_;
  SchedulerConfig config_;
  Fairshare fairshare_;
  PriorityEngine priority_;
  DfsEngine dfs_;
  /// Persistent physical profile, kept in sync via server observation;
  /// registered only when config_.incremental_planning (declared before
  /// ctx_, which points at it).
  PhysicalProfileTracker tracker_;
  IterationHistory history_{kHistoryCap};
  std::uint64_t iterations_ = 0;
  EventId poll_event_ = EventId::invalid();
  Time poll_at_;  ///< absolute fire time of poll_event_ when valid

  IterationContext ctx_;
  /// Registry instrument handles resolved once per sink change instead of
  /// by name (mutex + string hash) every iteration — instrument references
  /// are stable for a registry's lifetime. Invalidated by set_sinks.
  struct Instruments {
    obs::Counter* iterations = nullptr;  ///< null == not yet resolved
    obs::Counter* backfilled = nullptr;
    obs::Counter* start_failed = nullptr;
    obs::Counter* replanned_jobs = nullptr;
    obs::Histogram* iteration_us = nullptr;
    std::array<obs::Histogram*, kStageCount> stage_us{};
    obs::Gauge* queue_length = nullptr;
    obs::Gauge* dyn_queue_length = nullptr;
    obs::Gauge* free_cores = nullptr;
  };
  Instruments instruments_;
  /// Microseconds per CycleTimer tick, resolved at construction so the
  /// iteration and stage spans convert with a bare multiply.
  double tick_to_us_ = 0.0;
};

}  // namespace dbs::core
