// Differential tests: the timer wheel must run events in exactly the
// order of ReferenceQueue, a plain ordered map keyed by (time, schedule
// sequence), under random schedule/cancel/re-arm workloads. Whole
// simulations are pinned end to end by the golden digests
// (bench/golden_digests.cmake).
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "netsim/event_queue.h"

namespace cbt::netsim {
namespace {

/// The ordering contract in its plainest form: pending events sorted by
/// (time, schedule sequence); the id doubles as the sequence number.
/// Reschedule is literally Cancel followed by ScheduleAt.
class ReferenceQueue {
 public:
  EventId ScheduleAt(SimTime when, EventFn fn) {
    const EventId id = ++last_id_;
    pending_.emplace(std::make_pair(when, id), std::move(fn));
    when_of_.emplace(id, when);
    return id;
  }

  bool Cancel(EventId id) {
    const auto it = when_of_.find(id);
    if (it == when_of_.end()) return false;
    pending_.erase(std::make_pair(it->second, id));
    when_of_.erase(it);
    return true;
  }

  EventId Reschedule(EventId id, SimTime when, EventFn fn) {
    Cancel(id);
    return ScheduleAt(when, std::move(fn));
  }

  bool RunNext(SimTime& clock) {
    if (pending_.empty()) return false;
    auto node = pending_.extract(pending_.begin());
    when_of_.erase(node.key().second);
    clock = node.key().first;
    node.mapped()();
    return true;
  }

 private:
  std::map<std::pair<SimTime, EventId>, EventFn> pending_;
  std::unordered_map<EventId, SimTime> when_of_;
  EventId last_id_ = kInvalidEventId;
};

// --- Queue-level differential harness --------------------------------------

/// Runs a seeded random schedule/cancel/run workload against one queue
/// and returns the (time, tag) trace of every fired event.
template <typename Queue>
std::vector<std::pair<SimTime, int>> QueueTrace(std::uint64_t seed) {
  Rng rng(seed);
  Queue q;
  std::vector<std::pair<SimTime, int>> trace;
  std::vector<EventId> live;
  SimTime clock = 0;
  int tag = 0;
  for (int round = 0; round < 200; ++round) {
    // Burst of schedules at mixed horizons: same-tick, near, cross-level,
    // far-future (overflow territory), with plenty of time collisions.
    const int n = static_cast<int>(1 + rng.NextBelow(20));
    for (int i = 0; i < n; ++i) {
      SimTime when = clock;
      switch (rng.NextBelow(4)) {
        case 0:
          when += static_cast<SimTime>(rng.NextBelow(8));  // collisions
          break;
        case 1:
          when += static_cast<SimTime>(rng.NextBelow(50'000));
          break;
        case 2:
          when += static_cast<SimTime>(rng.NextBelow(100'000'000));
          break;
        default:
          when += static_cast<SimTime>(rng.NextBelow(60'000'000'000));
          break;
      }
      const int t = tag++;
      live.push_back(q.ScheduleAt(
          when, [&trace, when, t] { trace.emplace_back(when, t); }));
    }
    // Cancel a random subset (the *same logical* subset on both queues:
    // the RNG stream and live-list layout are queue independent).
    const int cancels = static_cast<int>(rng.NextBelow(n + 1));
    for (int i = 0; i < cancels && !live.empty(); ++i) {
      const std::size_t pick = rng.NextBelow(live.size());
      q.Cancel(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Run a random number of events.
    const int runs = static_cast<int>(rng.NextBelow(25));
    for (int i = 0; i < runs; ++i) {
      if (!q.RunNext(clock)) break;
    }
  }
  while (q.RunNext(clock)) {
  }
  return trace;
}

class EngineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferential,
                         ::testing::Values(1, 7, 23, 51, 97));

TEST_P(EngineDifferential, QueueExecutionTracesIdentical) {
  const auto wheel = QueueTrace<EventQueue>(GetParam());
  const auto reference = QueueTrace<ReferenceQueue>(GetParam());
  ASSERT_EQ(wheel.size(), reference.size());
  for (std::size_t i = 0; i < wheel.size(); ++i) {
    ASSERT_EQ(wheel[i], reference[i]) << "divergence at event " << i;
  }
}

// --- Re-arm parity -----------------------------------------------------------

/// How a harness moves a pending event to a new time.
enum class RearmMode { kReschedule, kCancelThenSchedule };

/// A seeded workload that keeps re-arming events — from the driver loop
/// and from inside running events, so pending entries of every kind move:
/// wheel-slot lists, the overflow heap, and the due run of the tick being
/// drained (including re-arms back into that same tick).
template <typename Queue>
class RearmHarness {
 public:
  RearmHarness(RearmMode mode, std::uint64_t seed) : mode_(mode), rng_(seed) {}

  void Run() {
    for (int round = 0; round < 150; ++round) {
      const int n = static_cast<int>(1 + rng_.NextBelow(12));
      for (int i = 0; i < n; ++i) {
        const SimTime when = clock_ + Horizon();
        const int t = tag_++;
        handles_.push_back(q_.ScheduleAt(when, Fire(when, t)));
      }
      const int rearms = static_cast<int>(rng_.NextBelow(n + 1));
      for (int i = 0; i < rearms; ++i) RearmRandom();
      const int runs = static_cast<int>(rng_.NextBelow(20));
      for (int i = 0; i < runs; ++i) {
        if (!q_.RunNext(clock_)) break;
      }
    }
    while (q_.RunNext(clock_)) {
    }
  }

  const std::vector<std::pair<SimTime, int>>& trace() const { return trace_; }
  const std::vector<EventId>& issued() const { return issued_; }
  std::size_t slot_capacity() const { return q_.slot_capacity(); }

 private:
  /// Offsets from now on a coarse grid, so that equal times — where
  /// only the sequence number orders events — are common at every level.
  SimTime Horizon() {
    const auto pick = [this](std::uint64_t n) {
      return static_cast<SimTime>(rng_.NextBelow(n));
    };
    switch (rng_.NextBelow(4)) {
      case 0:
        return pick(3);  // this tick
      case 1:
        return 1'000 * pick(8);  // level-0 slots
      case 2:
        return 1'000'000 * pick(100);  // higher levels, cascaded down
      default:
        // Beyond the wheel's ~4.8 h horizon: the overflow heap.
        return 20'000'000'000 + 1'000'000'000 * pick(8);
    }
  }

  EventFn Fire(SimTime when, int t) {
    return [this, when, t] {
      trace_.emplace_back(when, t);
      // Running events re-arm others mid-tick, often into this very tick.
      if (rng_.NextBelow(3) == 0) RearmRandom();
    };
  }

  /// Re-arms a random handle. Some handles already fired; re-arming one
  /// of those is a plain schedule on both paths.
  void RearmRandom() {
    if (handles_.empty()) return;
    const std::size_t pick = rng_.NextBelow(handles_.size());
    const SimTime when = clock_ + Horizon();
    const int t = tag_++;
    EventId id;
    if (mode_ == RearmMode::kReschedule) {
      id = q_.Reschedule(handles_[pick], when, Fire(when, t));
    } else {
      q_.Cancel(handles_[pick]);
      id = q_.ScheduleAt(when, Fire(when, t));
    }
    handles_[pick] = id;
    issued_.push_back(id);
  }

  Queue q_;
  RearmMode mode_;
  Rng rng_;
  SimTime clock_ = 0;
  int tag_ = 0;
  std::vector<EventId> handles_;
  std::vector<EventId> issued_;
  std::vector<std::pair<SimTime, int>> trace_;
};

TEST_P(EngineDifferential, RescheduleMatchesCancelThenSchedule) {
  RearmHarness<EventQueue> rearm(RearmMode::kReschedule, GetParam());
  RearmHarness<EventQueue> pair(RearmMode::kCancelThenSchedule, GetParam());
  rearm.Run();
  pair.Run();
  ASSERT_EQ(rearm.trace().size(), pair.trace().size());
  for (std::size_t i = 0; i < rearm.trace().size(); ++i) {
    ASSERT_EQ(rearm.trace()[i], pair.trace()[i]) << "divergence at event " << i;
  }
  // Same slab slot, same generation: the handles and the slab agree too.
  EXPECT_EQ(rearm.issued(), pair.issued());
  EXPECT_EQ(rearm.slot_capacity(), pair.slot_capacity());
  EXPECT_GT(rearm.issued().size(), 100u);
}

// In-place re-arm on the wheel fires in the order a plain heap gives
// (ReferenceQueue, whose Reschedule is Cancel + ScheduleAt).
TEST_P(EngineDifferential, RescheduleMatchesLegacyHeap) {
  RearmHarness<EventQueue> wheel(RearmMode::kReschedule, GetParam());
  RearmHarness<ReferenceQueue> reference(RearmMode::kReschedule, GetParam());
  wheel.Run();
  reference.Run();
  ASSERT_EQ(wheel.trace().size(), reference.trace().size());
  for (std::size_t i = 0; i < wheel.trace().size(); ++i) {
    ASSERT_EQ(wheel.trace()[i], reference.trace()[i])
        << "divergence at event " << i;
  }
}

/// Hand-placed re-arms of each pending kind, checked against the order a
/// cancel plus a fresh schedule must give.
template <typename Queue>
std::vector<int> PlacedRearmOrder(RearmMode mode) {
  Queue q;
  std::vector<int> order;
  const auto rec = [&order](int tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  const auto rearm = [&](EventId id, SimTime when, int tag) {
    if (mode == RearmMode::kReschedule) {
      return q.Reschedule(id, when, rec(tag));
    }
    q.Cancel(id);
    return q.ScheduleAt(when, rec(tag));
  };
  // One 1024 us tick holds 100, 200 and 300; 50'000 sits in a later
  // wheel slot, 70'000 in another and 30'000'000'000 in the overflow heap.
  q.ScheduleAt(100, rec(1));
  const EventId b = q.ScheduleAt(200, rec(2));
  const EventId c = q.ScheduleAt(300, rec(3));
  const EventId slot = q.ScheduleAt(50'000, rec(4));
  const EventId near = q.ScheduleAt(70'000, rec(5));
  const EventId far = q.ScheduleAt(30'000'000'000, rec(6));
  SimTime clock = 0;
  q.RunNext(clock);  // runs 1; the tick's due run now holds 2 and 3
  // Due-run entry re-armed earlier within the same tick: it overtakes 2.
  rearm(c, 150, 30);
  // Due-run entry re-armed to its own time: it now queues behind 30.
  rearm(b, 200, 20);
  // Wheel-slot entry pulled into the current tick, heap entry pulled into
  // the wheel, wheel entry pushed out to the overflow heap.
  rearm(slot, 250, 40);
  rearm(far, 60'000, 60);
  rearm(near, 40'000'000'000, 50);
  while (q.RunNext(clock)) {
  }
  return order;
}

TEST(EngineDifferential, RescheduleOfEachPendingKindKeepsOrder) {
  const std::vector<int> expected{1, 30, 20, 40, 60, 50};
  for (const auto mode :
       {RearmMode::kReschedule, RearmMode::kCancelThenSchedule}) {
    EXPECT_EQ(PlacedRearmOrder<EventQueue>(mode), expected);
    EXPECT_EQ(PlacedRearmOrder<ReferenceQueue>(mode), expected);
  }
}

}  // namespace
}  // namespace cbt::netsim
