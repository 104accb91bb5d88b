// Property tests for the event engine: random event storms with
// cancellations must fire in exact time/FIFO order, exactly once.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace dbs::sim {
namespace {

class SimProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SimProperty, EventStormFiresInOrderExactlyOnce) {
  Rng rng(GetParam());
  Simulator sim;
  struct Fired {
    Time at;
    int id;
  };
  std::vector<Fired> fired;
  std::vector<EventId> handles;
  std::vector<Time> times;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    // Deliberately collide many timestamps to stress FIFO ordering.
    const Time t = Time::from_seconds(rng.next_int(0, 50));
    times.push_back(t);
    handles.push_back(
        sim.schedule_at(t, [&fired, &sim, i] { fired.push_back({sim.now(), i}); }));
  }
  // Cancel a random ~25%.
  std::vector<bool> cancelled(n, false);
  for (int i = 0; i < n; ++i) {
    if (rng.next_double() < 0.25) {
      EXPECT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
      cancelled[static_cast<std::size_t>(i)] = true;
    }
  }
  sim.run();

  // Exactly the non-cancelled events fired, at their scheduled times.
  std::size_t expected = 0;
  for (int i = 0; i < n; ++i)
    if (!cancelled[static_cast<std::size_t>(i)]) ++expected;
  ASSERT_EQ(fired.size(), expected);
  std::vector<bool> seen(n, false);
  Time previous = Time::epoch();
  int previous_id = -1;
  for (const Fired& f : fired) {
    ASSERT_GE(f.id, 0);
    ASSERT_LT(f.id, n);
    EXPECT_FALSE(seen[static_cast<std::size_t>(f.id)]) << "double fire";
    seen[static_cast<std::size_t>(f.id)] = true;
    EXPECT_FALSE(cancelled[static_cast<std::size_t>(f.id)]);
    EXPECT_EQ(f.at, times[static_cast<std::size_t>(f.id)]);
    // Monotonic time; FIFO (insertion order) within equal timestamps.
    EXPECT_GE(f.at, previous);
    if (f.at == previous) {
      EXPECT_GT(f.id, previous_id);
    }
    previous = f.at;
    previous_id = f.id;
  }
}

TEST_P(SimProperty, NestedSchedulingKeepsOrder) {
  Rng rng(GetParam() + 5);
  Simulator sim;
  std::vector<Time> observed;
  // Events that spawn follow-up events at random future offsets.
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(Time::from_seconds(rng.next_int(0, 20)), [&, i] {
      observed.push_back(sim.now());
      const auto extra = rng.next_int(1, 30);
      if (i % 3 == 0)
        sim.schedule_after(Duration::seconds(extra),
                           [&] { observed.push_back(sim.now()); });
    });
  }
  sim.run();
  for (std::size_t i = 1; i < observed.size(); ++i)
    EXPECT_GE(observed[i], observed[i - 1]);
  EXPECT_TRUE(sim.idle());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimProperty,
                         testing::Values(3u, 17u, 555u, 90210u));

}  // namespace
}  // namespace dbs::sim
