#include "netsim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"

namespace cbt::netsim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock, 30);
}

TEST(EventQueue, SimultaneousEventsRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.ScheduleAt(5, [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.ScheduleAt(5, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, CancelAfterRunReturnsFalse) {
  EventQueue q;
  const EventId id = q.ScheduleAt(5, [] {});
  SimTime clock = 0;
  q.RunNext(clock);
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<SimTime> fire_times;
  SimTime clock = 0;
  q.ScheduleAt(10, [&] {
    fire_times.push_back(clock);
    q.ScheduleAt(20, [&] { fire_times.push_back(clock); });
  });
  while (q.RunNext(clock)) {
  }
  EXPECT_EQ(fire_times, (std::vector<SimTime>{10, 20}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  const EventId a = q.ScheduleAt(1, [] {});
  q.ScheduleAt(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.NextTime(), 2);
}

TEST(EventQueue, FarFutureEventsUseOverflowHeapAndStillOrder) {
  EventQueue q;
  std::vector<int> order;
  // ~12 days out: far beyond the wheel horizon.
  const SimTime far = 1'000'000'000'000;
  q.ScheduleAt(far + 7, [&] { order.push_back(3); });
  q.ScheduleAt(far + 7, [&] { order.push_back(4); });  // same-time FIFO
  q.ScheduleAt(5, [&] { order.push_back(1); });
  q.ScheduleAt(far, [&] { order.push_back(2); });
  EXPECT_GE(q.overflow_heap_size(), 3u);
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(clock, far + 7);
}

TEST(EventQueue, CancelFarFutureEventRemovesFromHeap) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.ScheduleAt(1'000'000'000'000, [&] { ran = true; });
  EXPECT_EQ(q.overflow_heap_size(), 1u);
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_EQ(q.overflow_heap_size(), 0u);
  EXPECT_TRUE(q.Empty());
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueue, SameTimeScheduleDuringDrainRunsAfterCurrent) {
  EventQueue q;
  std::vector<int> order;
  SimTime clock = 0;
  q.ScheduleAt(10, [&] {
    order.push_back(1);
    // Same-time follow-up lands in the tick currently being drained.
    q.ScheduleAt(10, [&] { order.push_back(3); });
  });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  while (q.RunNext(clock)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock, 10);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsNotCancellable) {
  EventQueue q;
  const EventId a = q.ScheduleAt(5, [] {});
  ASSERT_TRUE(q.Cancel(a));
  // The slot is reused for a fresh event; the stale handle must not be
  // able to cancel it.
  bool ran = false;
  q.ScheduleAt(6, [&] { ran = true; });
  EXPECT_FALSE(q.Cancel(a));
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_TRUE(ran);
}

TEST(EventQueue, RandomizedOrderMatchesTimeThenSequence) {
  Rng rng(99);
  EventQueue q;
  struct Fired {
    SimTime when;
    int seq;
  };
  std::vector<Fired> fired;
  std::vector<std::pair<SimTime, int>> expected;
  for (int i = 0; i < 5000; ++i) {
    // Mix of near (same tick / same wheel level), cross-level, and
    // far-future times to exercise cascades and the overflow heap.
    const SimTime when = static_cast<SimTime>(rng.NextBelow(50'000'000));
    expected.emplace_back(when, i);
    q.ScheduleAt(when, [&fired, when, i] { fired.push_back({when, i}); });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].when, expected[i].first) << i;
    EXPECT_EQ(fired[i].seq, expected[i].second) << i;
  }
}

// Regression for the cancelled-entry leak: the legacy engine left
// cancelled events (and their captures) in the heap until popped; the
// wheel engine must reclaim slots eagerly, so a million schedule/cancel
// cycles stay within a constant-size slab.
TEST(EventQueue, MillionCancelledTimersKeepMemoryBounded) {
  EventQueue q;
  constexpr int kWaves = 1000;
  constexpr int kPerWave = 1000;
  std::vector<EventId> ids;
  ids.reserve(kPerWave);
  for (int wave = 0; wave < kWaves; ++wave) {
    ids.clear();
    for (int i = 0; i < kPerWave; ++i) {
      ids.push_back(q.ScheduleAt(1000 + wave + i, [] {}));
    }
    for (const EventId id : ids) ASSERT_TRUE(q.Cancel(id));
  }
  EXPECT_TRUE(q.Empty());
  // The queue's own accounting: one million schedule/cancel cycles must
  // reuse the same ~kPerWave slots rather than accumulate tombstones.
  EXPECT_LE(q.slot_capacity(), static_cast<std::size_t>(kPerWave) + 64);
}

TEST(EventQueue, CancelDestroysClosureEagerly) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(42);
  const EventId id = q.ScheduleAt(5, [keep = sentinel] { (void)keep; });
  EXPECT_EQ(sentinel.use_count(), 2);
  ASSERT_TRUE(q.Cancel(id));
  // The capture must die at cancel time, not when the slot is popped.
  EXPECT_EQ(sentinel.use_count(), 1);
}

}  // namespace
}  // namespace cbt::netsim
