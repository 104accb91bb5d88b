#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.hpp"

namespace dbs::sim {

namespace {
// Compaction is amortized: it only triggers once tombstones outnumber
// live entries AND the heap is big enough that a rebuild is worth the
// bookkeeping. Each rebuild is O(heap) and removes > heap/2 entries, so
// the cost per cancelled event stays O(1) amortized (plus the O(log n)
// of the original push).
constexpr std::size_t kCompactMinHeap = 64;

constexpr std::uint64_t kLaneBit = std::uint64_t{1} << 63;
// A slot whose generation reaches this value is never reused, so a
// generation can never wrap around onto a key still lingering in the heap.
constexpr std::uint32_t kRetiredGen = std::numeric_limits<std::uint32_t>::max();

EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return EventId{(std::uint64_t{gen} << 32) | slot};
}
}  // namespace

EventId EventQueue::push(Time at, EventFn fn, Lane lane) {
  DBS_REQUIRE(fn != nullptr, "event must have an action");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    DBS_REQUIRE(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                "event slot table exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const std::uint64_t order =
      (lane == Lane::Normal ? kLaneBit : 0) | next_seq_++;
  heap_.push_back(Key{at, order, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return make_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  // A fired, cancelled or never-issued id fails the bounds, generation or
  // occupancy test and changes nothing.
  const auto slot = static_cast<std::uint32_t>(id.value());
  const auto gen = static_cast<std::uint32_t>(id.value() >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.gen != gen || !s.fn) return false;
  release(slot);
  --live_;
  ++tombstones_;  // its key stays in the heap until it surfaces
  maybe_compact();
  return true;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  if (++s.gen != kRetiredGen) free_slots_.push_back(slot);
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactMinHeap) return;
  if (tombstones_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const Key& k) { return is_tombstone(k); });
  tombstones_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ++compactions_;
}

void EventQueue::skip_tombstones() const {
  while (!heap_.empty() && is_tombstone(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --tombstones_;
  }
}

Time EventQueue::next_time() const {
  skip_tombstones();
  DBS_REQUIRE(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().at;
}

std::pair<Time, EventFn> EventQueue::pop() {
  skip_tombstones();
  DBS_REQUIRE(!heap_.empty(), "pop() on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key top = heap_.back();
  heap_.pop_back();
  std::pair<Time, EventFn> out{top.at, std::move(slots_[top.slot].fn)};
  release(top.slot);
  --live_;
  return out;
}

}  // namespace dbs::sim
