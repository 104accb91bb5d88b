// Differential tests: the slot-keyed EventQueue must behave identically to
// the original hash-set reference implementation under seeded storms of
// pushes, pops and cancels — the same firing order, and after every
// operation the same size(), tombstone count and compaction count. Cancels
// target pending, fired and already cancelled events (whose slots have
// usually been reused since), plus ids neither queue ever issued.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"

namespace dbs::sim {
namespace {

using testing::ReferenceEventQueue;

struct Tracked {
  EventId id;      ///< handle from the queue under test
  EventId ref_id;  ///< handle from the reference
  bool pending = true;
};

void expect_same_state(const EventQueue& q, const ReferenceEventQueue& ref,
                       int step) {
  ASSERT_EQ(q.size(), ref.size()) << "size diverged at op " << step;
  ASSERT_EQ(q.empty(), ref.empty()) << "op " << step;
  ASSERT_EQ(q.cancelled_count(), ref.cancelled_count())
      << "tombstone count diverged at op " << step;
  ASSERT_EQ(q.compactions(), ref.compactions())
      << "compaction count diverged at op " << step;
  if (!q.empty()) {
    ASSERT_EQ(q.next_time(), ref.next_time()) << "op " << step;
    ASSERT_EQ(q.cancelled_count(), ref.cancelled_count()) << "op " << step;
  }
}

class EventQueueDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventQueueDifferential, StormsAgreeWithReference) {
  Rng rng(GetParam());
  EventQueue q;
  ReferenceEventQueue ref;
  std::vector<Tracked> events;
  std::vector<int> fired;
  std::vector<int> ref_fired;
  Time floor = Time::epoch();
  constexpr int kOps = 30000;

  for (int step = 0; step < kOps; ++step) {
    // Phases of 1,000 ops shift the mix between filling the heap,
    // cancelling most of it (which drives compactions) and draining it.
    const int phase = (step / 1000) % 3;
    const double push_p = phase == 0 ? 0.6 : phase == 1 ? 0.2 : 0.25;
    const double cancel_p = phase == 1 ? 0.6 : 0.15;
    const double r = rng.next_double();

    if (r < push_p) {
      // Few distinct timestamps, so FIFO and lane ties are common.
      const Time at = floor + Duration::seconds(rng.next_int(0, 40));
      const Lane lane =
          rng.next_double() < 0.2 ? Lane::Submission : Lane::Normal;
      const int tag = static_cast<int>(events.size());
      Tracked t;
      t.id = q.push(at, [&fired, tag] { fired.push_back(tag); }, lane);
      t.ref_id = ref.push(at, [&ref_fired, tag] { ref_fired.push_back(tag); },
                          lane);
      events.push_back(t);
    } else if (r < push_p + cancel_p) {
      if (events.empty()) continue;
      // Mostly recent events (likely pending), otherwise any event ever
      // pushed: fired and cancelled ones sit in reused slots by now.
      const std::size_t n = events.size();
      const std::size_t pick =
          rng.next_double() < 0.7
              ? n - 1 - rng.next_below(std::min<std::size_t>(n, 64))
              : rng.next_below(n);
      Tracked& t = events[pick];
      const bool got = q.cancel(t.id);
      ASSERT_EQ(got, ref.cancel(t.ref_id)) << "cancel result, op " << step;
      ASSERT_EQ(got, t.pending) << "op " << step;
      t.pending = false;
    } else if (r < push_p + cancel_p + 0.05) {
      // Ids neither queue issued must fail and change nothing.
      EXPECT_FALSE(q.cancel(EventId::invalid()));
      EXPECT_FALSE(ref.cancel(EventId::invalid()));
      EXPECT_FALSE(q.cancel(EventId{(std::uint64_t{7} << 32) | 0xFFFFFFF0u}))
          << "slot beyond the table";
      EXPECT_FALSE(ref.cancel(EventId{events.size() + 1000}));
      if (!events.empty()) {
        const Tracked& t = events[rng.next_below(events.size())];
        if (t.pending) {
          // A generation the slot has not reached yet.
          const EventId future{t.id.value() + (std::uint64_t{1} << 32)};
          EXPECT_FALSE(q.cancel(future)) << "future generation, op " << step;
        }
      }
    } else {
      if (q.empty()) continue;
      auto [at, fn] = q.pop();
      auto [ref_at, ref_fn] = ref.pop();
      ASSERT_EQ(at, ref_at) << "pop time diverged at op " << step;
      fn();
      ref_fn();
      ASSERT_EQ(fired.back(), ref_fired.back())
          << "firing order diverged at op " << step;
      events[static_cast<std::size_t>(fired.back())].pending = false;
      floor = at;
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_state(q, ref, step));
  }

  // Drain what is left; the whole firing sequence must match.
  while (!q.empty()) {
    ASSERT_FALSE(ref.empty());
    auto [at, fn] = q.pop();
    auto [ref_at, ref_fn] = ref.pop();
    ASSERT_EQ(at, ref_at);
    fn();
    ref_fn();
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(fired, ref_fired);
  EXPECT_GT(q.compactions(), 0u) << "storm never exercised a compaction";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1u, 2u, 77u, 4242u, 900001u));

}  // namespace
}  // namespace dbs::sim
