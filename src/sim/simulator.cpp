#include "sim/simulator.hpp"

#include <utility>

#include "common/assert.hpp"

namespace dbs::sim {

EventId Simulator::schedule_at(Time at, EventFn fn) {
  DBS_REQUIRE(at >= now_, "cannot schedule into the past");
  return queue_.push(at, std::move(fn));
}

EventId Simulator::schedule_after(Duration d, EventFn fn) {
  DBS_REQUIRE(!d.is_negative(), "delay must be non-negative");
  return queue_.push(now_ + d, std::move(fn));
}

EventId Simulator::schedule_submission(Time at, EventFn fn) {
  DBS_REQUIRE(at >= now_, "cannot schedule into the past");
  return queue_.push(at, std::move(fn), Lane::Submission);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [at, fn] = queue_.pop();
  fire(at, std::move(fn));
  return true;
}

std::uint64_t Simulator::run() {
  return queue_.drain_until(Time::far_future(), [this](Time at, EventFn fn) {
    fire(at, std::move(fn));
  });
}

std::uint64_t Simulator::run_until(Time until) {
  const std::uint64_t n =
      queue_.drain_until(until, [this](Time at, EventFn fn) {
        fire(at, std::move(fn));
      });
  // Advance the clock to the horizon even if nothing fires exactly there,
  // so repeated run_until calls observe monotonic time.
  if (now_ < until) now_ = until;
  return n;
}

void Simulator::restore_clock(Time at) {
  DBS_REQUIRE(queue_.empty(),
              "clock restore requires an empty queue; re-arm events after");
  DBS_REQUIRE(at >= now_, "clock cannot move backwards");
  now_ = at;
}

void Simulator::fire(Time at, EventFn fn) {
  DBS_ASSERT(at >= now_, "event queue returned a past event");
  now_ = at;
  fn();
  ++events_fired_;
}

}  // namespace dbs::sim
