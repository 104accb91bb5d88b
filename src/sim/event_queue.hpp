// Time-ordered event queue with stable FIFO ordering for equal timestamps
// and O(1) cancellation through generation-checked slots.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::sim {

/// The action executed when an event fires.
using EventFn = std::function<void()>;

/// Ordering lane for events that share a timestamp. Submission-lane
/// events (workload arrivals) fire before normal-lane events at the same
/// instant regardless of push order, which is what makes a streaming
/// submission source — which pushes arrivals lazily, interleaved with the
/// run — order-equivalent to materializing the whole workload up front
/// (where every arrival gets an earlier sequence number than anything
/// scheduled during the run).
enum class Lane : std::uint8_t { Submission = 0, Normal = 1 };

class EventQueue {
 public:
  /// Enqueues `fn` to fire at `at`. Events with equal time and lane fire
  /// in insertion order; at equal times the Submission lane fires first.
  /// Returns a handle usable with cancel().
  EventId push(Time at, EventFn fn, Lane lane = Lane::Normal);

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed; such calls change nothing.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Exact number of pending (non-cancelled) events, O(1).
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Cancelled entries still lingering in the heap as tombstones, O(1).
  [[nodiscard]] std::size_t cancelled_count() const { return tombstones_; }
  /// Times the heap was rebuilt to shed tombstones (observability).
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

  /// Time of the earliest pending (non-cancelled) event.
  /// Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the earliest event. Precondition: !empty().
  std::pair<Time, EventFn> pop();

  /// Pops every event with time <= `until` in firing order and hands each
  /// to `fire(at, fn)`. Returns the number of events fired. `fire` may
  /// push new events; those landing inside the horizon are drained too.
  /// This is the one drain loop behind Simulator::run/run_until and the
  /// service loop, so the tombstone/ordering subtleties live in one place.
  template <typename Fire>
  std::uint64_t drain_until(Time until, Fire&& fire) {
    std::uint64_t n = 0;
    while (!empty() && next_time() <= until) {
      auto [at, fn] = pop();
      fire(at, std::move(fn));
      ++n;
    }
    return n;
  }

 private:
  /// What the heap sifts: the firing order plus where the callable lives.
  /// The callables stay put in slots_, so a sift moves 24 bytes instead
  /// of a 64-byte entry with a std::function inside.
  struct Key {
    Time at;
    /// Lane in the top bit, push sequence below: one compare orders equal
    /// timestamps by lane, then FIFO.
    std::uint64_t order;
    std::uint32_t slot;
    /// The slot's generation at push time. A cancel or a fire bumps the
    /// slot's generation, so a key whose generation no longer matches is
    /// a tombstone.
    std::uint32_t gen;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  /// Min-heap order via std::*_heap's max-heap convention: `a` sorts
  /// later than `b` when it fires after it.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.order > b.order;
    }
  };

  struct Slot {
    EventFn fn;  ///< empty while the slot is free
    std::uint32_t gen = 0;
  };

  [[nodiscard]] bool is_tombstone(const Key& k) const {
    return slots_[k.slot].gen != k.gen;
  }
  /// Destroys the slot's callable and bumps its generation, which turns
  /// every outstanding EventId and heap key for it stale.
  void release(std::uint32_t slot);
  /// Drops cancelled entries from the front.
  void skip_tombstones() const;
  /// Rebuilds the heap without the tombstones once they dominate it, so
  /// a workload that cancels most of what it schedules (coalesced
  /// scheduler triggers, negotiation timeouts) keeps the heap at
  /// O(pending) instead of O(pushed).
  void maybe_compact();

  // Invariant: the heap holds one key per pending event plus tombstones_
  // stale keys (cancelled entries linger until they surface at the top or
  // a compaction sheds them).
  mutable std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  mutable std::size_t tombstones_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace dbs::sim
