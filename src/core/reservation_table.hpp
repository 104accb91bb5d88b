// Reservations produced by one scheduling pass. Maui rebuilds these every
// iteration; the table is a planning artifact, not persistent state.
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::rms {
class Job;
}

namespace dbs::core {

/// A planned (job, interval, cores) triple. `start_now` marks StartNow jobs
/// (planned start equals the iteration time); `backfilled` marks jobs that
/// would start now even though a higher-priority job waits. `job` is the
/// queued job the walk planned; a table is read only within the pass that
/// built it, while that job is alive.
struct Reservation {
  const rms::Job* job = nullptr;
  Time start;
  Time end;
  CoreCount cores = 0;
  bool start_now = false;
  bool backfilled = false;

  [[nodiscard]] bool operator==(const Reservation&) const = default;
};

/// One plan: its reservations in the order the walk added them, which is
/// priority order. Every walk visits each job of its input once, so a table
/// is a subsequence of that input; callers walk it instead of looking jobs
/// up by id.
class ReservationTable {
 public:
  void add(Reservation r);
  /// Keeps the allocated storage (tables are rebuilt every iteration).
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  [[nodiscard]] const std::vector<Reservation>& items() const { return items_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  [[nodiscard]] std::size_t start_now_count() const;
  [[nodiscard]] std::size_t start_later_count() const;

 private:
  std::vector<Reservation> items_;  ///< in planning (priority) order
};

}  // namespace dbs::core
