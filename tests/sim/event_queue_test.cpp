#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assert.hpp"

namespace dbs::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(Time::from_seconds(2), [&] { fired.push_back(2); });
  q.push(Time::from_seconds(1), [&] { fired.push_back(1); });
  q.push(Time::from_seconds(3), [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i)
    q.push(Time::from_seconds(5), [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(Time::from_seconds(1), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(Time::from_seconds(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId::invalid()));
  EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> fired;
  q.push(Time::from_seconds(1), [&] { fired.push_back(1); });
  const EventId mid = q.push(Time::from_seconds(2), [&] { fired.push_back(2); });
  q.push(Time::from_seconds(3), [&] { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(mid));
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = q.push(Time::from_seconds(1), [] {});
  q.push(Time::from_seconds(2), [] {});
  q.cancel(first);
  EXPECT_EQ(q.next_time(), Time::from_seconds(2));
}

TEST(EventQueue, EmptyQueueGuards) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)q.next_time(), precondition_error);
  EXPECT_THROW((void)q.pop(), precondition_error);
}

TEST(EventQueue, NullEventRejected) {
  EventQueue q;
  EXPECT_THROW(q.push(Time::epoch(), nullptr), precondition_error);
}

TEST(EventQueue, SizeIsExactWithInteriorTombstones) {
  EventQueue q;
  q.push(Time::from_seconds(1), [] {});
  const EventId mid = q.push(Time::from_seconds(2), [] {});
  q.push(Time::from_seconds(3), [] {});
  EXPECT_EQ(q.size(), 3u);
  // Cancelling an interior event leaves a tombstone in the heap, but
  // size() counts live entries only.
  EXPECT_TRUE(q.cancel(mid));
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelFiredEventFails) {
  EventQueue q;
  const EventId id = q.push(Time::from_seconds(1), [] {});
  (void)q.pop();
  // A fired id is no longer cancellable — and retrying must not grow the
  // internal tombstone set (it would leak if fired ids were recorded).
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, SubmissionLaneFiresFirstAtEqualTime) {
  EventQueue q;
  std::vector<int> fired;
  // Normal-lane events pushed first, submission-lane last: the lane, not
  // the push order, decides the tie.
  q.push(Time::from_seconds(5), [&] { fired.push_back(1); });
  q.push(Time::from_seconds(5), [&] { fired.push_back(2); });
  q.push(Time::from_seconds(5), [&] { fired.push_back(0); },
         Lane::Submission);
  // An earlier normal event still beats a later submission event.
  q.push(Time::from_seconds(4), [&] { fired.push_back(-1); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(EventQueue, SubmissionLaneIsFifoWithinItself) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i)
    q.push(Time::from_seconds(1), [&fired, i] { fired.push_back(i); },
           Lane::Submission);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CompactionShedsTombstones) {
  EventQueue q;
  std::vector<EventId> ids;
  // Big enough to clear the compaction floor, with one survivor.
  constexpr int kEvents = 200;
  std::vector<int> fired;
  for (int i = 0; i < kEvents; ++i)
    ids.push_back(
        q.push(Time::from_seconds(i + 1), [&fired, i] { fired.push_back(i); }));
  // Cancel all but the last: once tombstones pass 50% of the heap the
  // queue must rebuild and drop them without waiting for pops.
  for (std::size_t i = 0; i + 1 < ids.size(); ++i)
    EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_GE(q.compactions(), 1u);
  // Compaction is amortized: tombstones may linger below the rebuild
  // floor, but never anywhere near the 199 cancelled here.
  EXPECT_LT(q.cancelled_count(), 64u);
  EXPECT_EQ(q.size(), 1u);
  // The surviving event still fires, exactly once, in order.
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{kEvents - 1}));
}

TEST(EventQueue, CompactionPreservesOrderingAndPending) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> evens;
  constexpr int kEvents = 256;
  for (int i = 0; i < kEvents; ++i) {
    // Interleaved times so the heap is well mixed before the rebuild.
    const EventId id = q.push(Time::from_seconds((i * 7919) % 1000 + 1),
                              [&fired, i] { fired.push_back(i); });
    // Evens plus one odd: a strict majority, so the rebuild must trigger.
    if (i % 2 == 0 || i == 1) evens.push_back(id);
  }
  for (const EventId id : evens) EXPECT_TRUE(q.cancel(id));
  EXPECT_GE(q.compactions(), 1u);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kEvents / 2 - 1));
  std::vector<int> expect;
  for (int i = 3; i < kEvents; i += 2) expect.push_back(i);
  std::sort(expect.begin(), expect.end(), [](int a, int b) {
    const int ta = (a * 7919) % 1000;
    const int tb = (b * 7919) % 1000;
    if (ta != tb) return ta < tb;
    return a < b;  // FIFO at equal times == id order here
  });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, expect);
}

TEST(EventQueue, CancelledCountTracksTombstones) {
  EventQueue q;
  const EventId a = q.push(Time::from_seconds(1), [] {});
  q.push(Time::from_seconds(2), [] {});
  EXPECT_EQ(q.cancelled_count(), 0u);
  q.cancel(a);
  EXPECT_EQ(q.cancelled_count(), 1u);
  // Popping past the tombstone reclaims it.
  (void)q.pop();
  EXPECT_EQ(q.cancelled_count(), 0u);
}

TEST(EventQueue, EmptyTrueWithOnlyTombstonesLeft) {
  EventQueue q;
  const EventId a = q.push(Time::from_seconds(1), [] {});
  const EventId b = q.push(Time::from_seconds(2), [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
  // The heap still physically holds both entries, but the queue is
  // logically empty — without draining pops.
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace dbs::sim
