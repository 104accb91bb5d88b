// The discrete-event simulator: a virtual clock plus an event queue.
// All subsystems (server, moms, scheduler, application models) schedule
// callbacks here; the simulator advances time strictly monotonically.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace dbs::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must not be in the past).
  EventId schedule_at(Time at, EventFn fn);

  /// Schedules `fn` after non-negative delay `d`.
  EventId schedule_after(Duration d, EventFn fn);

  /// Schedules `fn` at `at` on the Submission lane: at equal timestamps it
  /// fires before every normal-lane event, regardless of push order. Used
  /// by workload submission paths so streaming and materialized drivers
  /// produce identical event orderings.
  EventId schedule_submission(Time at, EventFn fn);

  /// Cancels a pending event; false if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue is empty. Returns the number of events fired.
  std::uint64_t run();

  /// Runs until the queue is empty or virtual time would exceed `until`.
  /// Events at exactly `until` are fired.
  std::uint64_t run_until(Time until);

  /// Fires at most one event; false if the queue was empty.
  bool step();

  /// Jumps the clock forward to `at` without firing anything. State
  /// restore only: requires an empty queue (a recovered system re-arms
  /// its events after the jump) and a non-backward jump.
  void restore_clock(Time at);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  /// Advances the clock to `at` and runs `fn` (the one firing path shared
  /// by step/run/run_until).
  void fire(Time at, EventFn fn);

  EventQueue queue_;
  Time now_ = Time::epoch();
  std::uint64_t events_fired_ = 0;
};

}  // namespace dbs::sim
