// The original hash-set EventQueue, kept verbatim as a reference
// implementation for differential testing of the slot-keyed production
// queue (mirroring reference_profile.hpp and reference_allocator.hpp).
// Every heap entry carries its std::function; cancellation moves the id
// from a pending set into a tombstone set, and tombstones leave the heap
// when they surface or when a compaction rebuilds it. Agreement — the same
// firing order, size(), cancel() results, tombstone count and compaction
// count after every operation — transfers this queue's simplicity to the
// optimized one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace dbs::sim::testing {

class ReferenceEventQueue {
 public:
  EventId push(Time at, EventFn fn, Lane lane = Lane::Normal) {
    DBS_REQUIRE(fn != nullptr, "event must have an action");
    const EventId id{next_seq_};
    heap_.push_back(Entry{at, next_seq_, id, lane, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    pending_.insert(id);
    ++next_seq_;
    return id;
  }

  bool cancel(EventId id) {
    // Only a genuinely pending event can be cancelled. Fired, already
    // cancelled or never-existing ids fail without leaving a tombstone —
    // otherwise a caller retrying cancels of fired ids would grow
    // `cancelled_` without bound.
    if (pending_.erase(id) == 0) return false;
    cancelled_.insert(id);
    maybe_compact();
    return true;
  }

  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] std::size_t cancelled_count() const {
    return cancelled_.size();
  }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

  [[nodiscard]] Time next_time() const {
    skip_tombstones();
    DBS_REQUIRE(!heap_.empty(), "next_time() on empty queue");
    return heap_.front().at;
  }

  std::pair<Time, EventFn> pop() {
    skip_tombstones();
    DBS_REQUIRE(!heap_.empty(), "pop() on empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry& top = heap_.back();
    std::pair<Time, EventFn> out{top.at, std::move(top.fn)};
    pending_.erase(top.id);
    heap_.pop_back();
    return out;
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventId id;
    Lane lane;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.lane != b.lane) return a.lane > b.lane;
      return a.seq > b.seq;
    }
  };

  // Compaction is amortized: it only triggers once tombstones outnumber
  // live entries AND the heap is big enough that a rebuild is worth the
  // bookkeeping.
  static constexpr std::size_t kCompactMinHeap = 64;

  void maybe_compact() {
    if (heap_.size() < kCompactMinHeap) return;
    if (cancelled_.size() * 2 <= heap_.size()) return;
    std::erase_if(heap_,
                  [this](const Entry& e) { return cancelled_.contains(e.id); });
    cancelled_.clear();
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    ++compactions_;
  }

  void skip_tombstones() const {
    while (!heap_.empty() && cancelled_.contains(heap_.front().id)) {
      cancelled_.erase(heap_.front().id);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  mutable std::vector<Entry> heap_;
  mutable std::unordered_set<EventId> cancelled_;
  std::unordered_set<EventId> pending_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace dbs::sim::testing
