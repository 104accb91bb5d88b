#include "core/reservation_table.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "common/assert.hpp"

namespace dbs::core {
namespace {

struct Fixture {
  std::vector<std::unique_ptr<rms::Job>> storage;

  Reservation res(std::uint64_t job, std::int64_t start, std::int64_t end,
                  CoreCount cores, bool now = false) {
    const Duration wall = Duration::hours(1);
    storage.push_back(std::make_unique<rms::Job>(
        JobId{job}, test::spec("j" + std::to_string(job), 1, wall),
        test::rigid(wall), Time::epoch()));
    return {storage.back().get(), Time::from_seconds(start),
            Time::from_seconds(end), cores, now, false};
  }
};

TEST(ReservationTable, AddAndFind) {
  Fixture f;
  ReservationTable t;
  t.add(f.res(1, 0, 100, 8, true));
  t.add(f.res(2, 100, 200, 16));
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(test::reservation_of(t, JobId{2}), nullptr);
  EXPECT_EQ(test::reservation_of(t, JobId{2})->cores, 16);
  EXPECT_EQ(test::reservation_of(t, JobId{3}), nullptr);
  // In the order added.
  EXPECT_EQ(t.items()[0].job->id(), JobId{1});
  EXPECT_EQ(t.items()[1].job->id(), JobId{2});
}

TEST(ReservationTable, Counts) {
  Fixture f;
  ReservationTable t;
  t.add(f.res(1, 0, 100, 8, true));
  t.add(f.res(2, 0, 50, 4, true));
  t.add(f.res(3, 100, 200, 16));
  EXPECT_EQ(t.start_now_count(), 2u);
  EXPECT_EQ(t.start_later_count(), 1u);
}

TEST(ReservationTable, Validation) {
  Fixture f;
  ReservationTable t;
  EXPECT_THROW(t.add(f.res(1, 100, 100, 8)), precondition_error);  // empty
  EXPECT_THROW(t.add(f.res(1, 0, 100, 0)), precondition_error);  // no cores
  EXPECT_TRUE(t.empty());
}

TEST(ReservationTable, ClearEmpties) {
  Fixture f;
  ReservationTable t;
  t.add(f.res(1, 0, 100, 8));
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(test::reservation_of(t, JobId{1}), nullptr);
}

}  // namespace
}  // namespace dbs::core
