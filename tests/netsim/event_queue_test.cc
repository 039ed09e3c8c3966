#include "netsim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "netsim/simulator.h"
#include "netsim/timer.h"

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

TEST(EventQueue, RunNextUntilStopsAtTheBound) {
  // Same-time, cancelled and self-scheduled events against RunNext on a
  // twin queue: the same order, clock and slab, stopping at each bound.
  EventQueue bounded;
  EventQueue twin;
  std::vector<int> got;
  std::vector<int> want;
  SimTime got_clock = 0;
  SimTime want_clock = 0;
  const auto load = [](EventQueue& q, std::vector<int>& order) {
    for (int i = 0; i < 6; ++i) {
      q.ScheduleAt(1000 * (i % 3), [&q, &order, i] {
        order.push_back(i);
        if (i == 4) q.ScheduleAt(2500, [&order] { order.push_back(9); });
      });
    }
    q.Cancel(q.ScheduleAt(1500, [&order] { order.push_back(8); }));
  };
  load(bounded, got);
  load(twin, want);
  for (const SimTime until : {SimTime{999}, SimTime{1000}, SimTime{2600}}) {
    while (bounded.RunNextUntil(until, got_clock)) {
    }
    while (!twin.Empty() && twin.NextTime() <= until) twin.RunNext(want_clock);
    EXPECT_EQ(got, want) << "until " << until;
    EXPECT_EQ(got_clock, want_clock) << "until " << until;
    EXPECT_LE(got_clock, until);
    EXPECT_EQ(bounded.size(), twin.size());
    EXPECT_EQ(bounded.slot_capacity(), twin.slot_capacity());
    EXPECT_TRUE(bounded.CheckInvariants());
  }
  EXPECT_EQ(got, (std::vector<int>{0, 3, 1, 4, 2, 5, 9}));
  EXPECT_FALSE(bounded.RunNextUntil(1'000'000, got_clock));
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

// Soft-state upkeep arms the same periodic timer on every router for
// one instant. Those events share one wheel entry, so the wheel cascades
// and orders them once, and they still fire in arm order.
TEST(EventQueue, SameInstantTimersShareOneWheelEntry) {
  constexpr int kTimers = 256;
  Simulator sim;
  std::vector<Timer> timers(kTimers);
  std::vector<int> order;
  for (int i = 0; i < kTimers; ++i) {
    timers[i].BindTo(sim);
    timers[i].Schedule(5 * kSecond, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.events().size(), static_cast<std::size_t>(kTimers));
  EXPECT_EQ(sim.events().wheel_entries(), 1u);
  EXPECT_TRUE(sim.events().CheckInvariants());
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.events().wheel_entries(), 0u);
}

// Refreshing each timer in place to its own later time leaves one entry
// per distinct time: the emptied shared entry is freed, and the event
// slab does not grow.
TEST(EventQueue, TimersRefreshedToDistinctTimesOccupyOneEntryEach) {
  constexpr int kTimers = 256;
  Simulator sim;
  std::vector<Timer> timers(kTimers);
  std::vector<int> order;
  for (int i = 0; i < kTimers; ++i) {
    timers[i].BindTo(sim);
    timers[i].Schedule(5 * kSecond, [] {});
  }
  ASSERT_EQ(sim.events().wheel_entries(), 1u);
  // Refresh in reverse, so the fire order differs from the arm order.
  for (int i = kTimers - 1; i >= 0; --i) {
    timers[i].Schedule(6 * kSecond + i * kMillisecond,
                       [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.events().size(), static_cast<std::size_t>(kTimers));
  EXPECT_EQ(sim.events().wheel_entries(), static_cast<std::size_t>(kTimers));
  EXPECT_EQ(sim.events().slot_capacity(), static_cast<std::size_t>(kTimers));
  EXPECT_TRUE(sim.events().CheckInvariants());
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) EXPECT_EQ(order[i], i);
}

// --- Closure construction and moves ------------------------------------------
//
// Every schedule path builds the caller's callable straight in its slab
// slot and moves it once more, out of the slot when the event runs. A
// slab that grows relocates the closures already pending in it, so tests
// that keep several events pending warm the slab first.

struct MoveCounts {
  int copies = 0;
  int moves = 0;
  int runs = 0;
  int moves_at_run = -1;  // moves made before the closure ran
};

/// A closure that counts its own copies and moves.
struct Counted {
  MoveCounts* counts;
  explicit Counted(MoveCounts* c) : counts(c) {}
  Counted(const Counted& o) noexcept : counts(o.counts) { ++counts->copies; }
  Counted(Counted&& o) noexcept : counts(o.counts) { ++counts->moves; }
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  void operator()() {
    counts->moves_at_run = counts->moves;
    ++counts->runs;
  }
};

/// Built once into the slab (one move from the caller's temporary), moved
/// once at the pop, never copied.
void ExpectBuiltInSlotMovedOnceAtPop(const MoveCounts& c) {
  EXPECT_EQ(c.copies, 0);
  EXPECT_EQ(c.runs, 1);
  EXPECT_EQ(c.moves_at_run, 2);
  EXPECT_EQ(c.moves, 2);
}

TEST(EventClosureMoves, QueueScheduleAtBuildsInSlot) {
  EventQueue q;
  MoveCounts c;
  q.ScheduleAt(5, Counted(&c));
  EXPECT_EQ(c.moves, 1);
  EXPECT_EQ(c.copies, 0);
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  ExpectBuiltInSlotMovedOnceAtPop(c);
}

TEST(EventClosureMoves, QueueScheduleAtCopiesAnLvalueOnce) {
  EventQueue q;
  MoveCounts c;
  const Counted fn(&c);
  q.ScheduleAt(5, fn);
  EXPECT_EQ(c.copies, 1);
  EXPECT_EQ(c.moves, 0);
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_EQ(c.runs, 1);
  EXPECT_EQ(c.moves_at_run, 1);
}

TEST(EventClosureMoves, QueueRescheduleOfPendingIdBuildsInSlot) {
  EventQueue q;
  MoveCounts old_counts;
  MoveCounts c;
  const EventId id = q.ScheduleAt(5, Counted(&old_counts));
  const EventId renewed = q.Reschedule(id, 7, Counted(&c));
  EXPECT_NE(renewed, id);
  EXPECT_EQ(c.moves, 1);
  EXPECT_EQ(q.slot_capacity(), 1u);
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_EQ(old_counts.runs, 0);
  EXPECT_EQ(old_counts.moves, 1);  // built, then destroyed in its slot
  ExpectBuiltInSlotMovedOnceAtPop(c);
}

TEST(EventClosureMoves, QueueRescheduleOfStaleIdBuildsInSlot) {
  EventQueue q;
  const EventId stale = q.ScheduleAt(1, [] {});
  ASSERT_TRUE(q.Cancel(stale));
  MoveCounts c;
  q.Reschedule(stale, 7, Counted(&c));
  EXPECT_EQ(c.moves, 1);
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  ExpectBuiltInSlotMovedOnceAtPop(c);
}

/// Leaves `sim`'s event slab with `slots` free slots.
void WarmSlab(Simulator& sim, int slots) {
  std::vector<EventId> ids;
  for (int i = 0; i < slots; ++i) ids.push_back(sim.Schedule(kSecond, [] {}));
  for (const EventId id : ids) sim.Cancel(id);
}

TEST(EventClosureMoves, SimulatorSchedulePathsBuildInSlot) {
  Simulator sim;
  WarmSlab(sim, 8);
  MoveCounts scheduled;
  MoveCounts at;
  MoveCounts rescheduled;
  MoveCounts fresh;
  sim.Schedule(kMillisecond, Counted(&scheduled));
  sim.ScheduleAt(2 * kMillisecond, Counted(&at));
  const EventId pending = sim.Schedule(kSecond, [] {});
  sim.Reschedule(pending, 3 * kMillisecond, Counted(&rescheduled));
  sim.Reschedule(kInvalidEventId, 4 * kMillisecond, Counted(&fresh));
  for (const MoveCounts* c : {&scheduled, &at, &rescheduled, &fresh}) {
    EXPECT_EQ(c->moves, 1);
  }
  sim.RunUntilIdle();
  for (const MoveCounts* c : {&scheduled, &at, &rescheduled, &fresh}) {
    ExpectBuiltInSlotMovedOnceAtPop(*c);
  }
}

TEST(EventClosureMoves, TimerBuildsItsWrapperInSlot) {
  Simulator sim;
  Timer timer(sim);
  MoveCounts first;
  MoveCounts rearmed;
  timer.Schedule(kSecond, Counted(&first));
  EXPECT_EQ(first.moves, 1);
  timer.Schedule(2 * kSecond, Counted(&rearmed));  // re-arm while pending
  EXPECT_EQ(rearmed.moves, 1);
  sim.RunUntilIdle();
  EXPECT_EQ(first.runs, 0);
  ExpectBuiltInSlotMovedOnceAtPop(rearmed);
  EXPECT_FALSE(timer.IsPending());
}

TEST(EventClosureMoves, AnEventFnArgumentIsMovedIn) {
  EventQueue q;
  MoveCounts c;
  EventFn fn{Counted(&c)};
  ASSERT_EQ(c.moves, 1);
  q.ScheduleAt(5, std::move(fn));
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.moves, 2);
  SimTime clock = 0;
  while (q.RunNext(clock)) {
  }
  EXPECT_EQ(c.runs, 1);
  EXPECT_EQ(c.moves_at_run, 3);
}

/// Sets `*destroyed` when it dies.
struct DestroyFlag {
  bool* destroyed;
  ~DestroyFlag() { *destroyed = true; }
};

TEST(EventClosureMoves, UniquePtrCaptureIsReleasedWhenTheEventRuns) {
  EventQueue q;
  bool destroyed = false;
  bool ran = false;
  q.ScheduleAt(5, [p = std::make_unique<DestroyFlag>(&destroyed), &ran] {
    ran = p != nullptr;
  });
  EXPECT_FALSE(destroyed);
  SimTime clock = 0;
  ASSERT_TRUE(q.RunNext(clock));
  EXPECT_TRUE(ran);
  EXPECT_TRUE(destroyed);
}

TEST(EventClosureMoves, UniquePtrCaptureIsReleasedWhenCancelled) {
  EventQueue q;
  bool destroyed = false;
  const EventId id =
      q.ScheduleAt(5, [p = std::make_unique<DestroyFlag>(&destroyed)] {});
  EXPECT_FALSE(destroyed);
  ASSERT_TRUE(q.Cancel(id));
  EXPECT_TRUE(destroyed);
}

TEST(EventClosureMoves, OversizedCaptureRunsThroughTheHeap) {
  EventQueue q;
  MoveCounts c;
  std::array<std::uint8_t, EventFn::kInlineBytes> pad{};
  pad.back() = 7;
  int seen = 0;
  auto big = [counted = Counted(&c), pad, &seen]() mutable {
    counted();
    seen = pad.back();
  };
  static_assert(!EventFn::kFitsInline<decltype(big)>);
  static_assert(EventFn::kFitsInline<Counted>);
  const int before = c.moves;
  q.ScheduleAt(5, std::move(big));
  EXPECT_EQ(c.moves - before, 1);  // into its heap block
  SimTime clock = 0;
  ASSERT_TRUE(q.RunNext(clock));
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(c.moves_at_run - before, 1);  // the pop moves the pointer only
}

}  // namespace
}  // namespace cbt::netsim
