#include "core/reservation_table.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dbs::core {

void ReservationTable::add(Reservation r) {
  DBS_REQUIRE(r.start < r.end, "reservation interval must be non-empty");
  DBS_REQUIRE(r.cores > 0, "reservation must hold cores");
  items_.push_back(r);
}

std::size_t ReservationTable::start_now_count() const {
  return static_cast<std::size_t>(
      std::count_if(items_.begin(), items_.end(),
                    [](const Reservation& r) { return r.start_now; }));
}

std::size_t ReservationTable::start_later_count() const {
  return items_.size() - start_now_count();
}

}  // namespace dbs::core
