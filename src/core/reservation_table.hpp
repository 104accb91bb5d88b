// Reservations produced by one scheduling pass. Maui rebuilds these every
// iteration; the table is a planning artifact, not persistent state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::core {

/// A planned (job, interval, cores) triple. `start_now` marks StartNow jobs
/// (planned start equals the iteration time); `backfilled` marks jobs that
/// would start now even though a higher-priority job waits.
struct Reservation {
  JobId job;
  Time start;
  Time end;
  CoreCount cores = 0;
  bool start_now = false;
  bool backfilled = false;

  [[nodiscard]] bool operator==(const Reservation&) const = default;
};

class ReservationTable {
 public:
  ReservationTable() = default;

  void add(Reservation r);
  /// Keeps the allocated storage (tables are rebuilt every iteration).
  /// The stamped membership array survives clears by generation bump, so
  /// repeated rebuild cycles never re-touch it.
  void clear() {
    items_.clear();
    index_.clear();
    ++generation_;
    rebase_pending_ = true;
  }
  void reserve(std::size_t n) { items_.reserve(n); }

  [[nodiscard]] const std::vector<Reservation>& items() const { return items_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  /// Reservation of `job`, or nullptr. O(1): a stamped dense-id membership
  /// array answers the common miss (tables hold tens of entries, callers
  /// probe the whole queue) with one flat load; only hits pay the hash
  /// lookup. (Delay measurement and the classify stage's protected-subset
  /// walk probe once per queued job per pass.)
  ///
  /// The stamp array is indexed relative to `base_`, re-anchored at the
  /// first id added after each clear(): under job retirement ids grow
  /// without bound, and an absolutely-indexed array would too (the 10M-job
  /// replay leaked ~4 B per submitted job per live table). The stamp is
  /// only a miss filter — a stale match falls through to the hash map, so
  /// re-anchoring never changes results; ids below the anchor (rare: the
  /// first planned job is the highest-priority, i.e. usually oldest, one)
  /// skip the filter and pay the hash lookup.
  [[nodiscard]] const Reservation* find(JobId job) const {
    const auto id = static_cast<std::uint64_t>(job.value());
    if (id < base_) return find_slow(job);
    const auto slot = static_cast<std::size_t>(id - base_);
    if (slot >= member_stamp_.size() || member_stamp_[slot] != generation_)
      return nullptr;
    return find_slow(job);
  }

  [[nodiscard]] std::size_t start_now_count() const;
  [[nodiscard]] std::size_t start_later_count() const;

 private:
  [[nodiscard]] const Reservation* find_slow(JobId job) const;

  std::vector<Reservation> items_;  ///< in planning (priority) order
  std::unordered_map<JobId, std::size_t> index_;  ///< job -> items_ position
  std::vector<std::uint32_t> member_stamp_;  ///< == generation_: reserved
  std::uint64_t base_ = 0;  ///< id of member_stamp_[0]
  std::uint32_t generation_ = 1;  ///< 1-based so zero-init never matches
  bool rebase_pending_ = true;  ///< next add() re-anchors base_
};

}  // namespace dbs::core
