// Differential tests: the timer-wheel engine must be observationally
// identical to the legacy heap engine — same execution order at the
// queue level, and byte-identical protocol-level stats when a whole
// simulation (join latency, chaos soak) is replayed on both engines at
// the same seed. This is the parity proof that lets the wheel replace
// the heap without perturbing any seeded experiment.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "cbt/domain.h"
#include "common/random.h"
#include "netsim/chaos.h"
#include "netsim/event_queue.h"
#include "netsim/topologies.h"

namespace cbt::netsim {
namespace {

// --- Queue-level differential harness --------------------------------------

/// Runs a seeded random schedule/cancel/run workload against one engine
/// and returns the (time, tag) trace of every fired event.
std::vector<std::pair<SimTime, int>> QueueTrace(EventQueue::Engine engine,
                                                std::uint64_t seed) {
  Rng rng(seed);
  EventQueue q(engine);
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
    // Cancel a random subset (the *same logical* subset on both engines:
    // the RNG stream and live-list layout are engine independent).
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
  const auto wheel = QueueTrace(EventQueue::Engine::kTimerWheel, GetParam());
  const auto legacy = QueueTrace(EventQueue::Engine::kLegacyHeap, GetParam());
  ASSERT_EQ(wheel.size(), legacy.size());
  for (std::size_t i = 0; i < wheel.size(); ++i) {
    ASSERT_EQ(wheel[i], legacy[i]) << "divergence at event " << i;
  }
}

// --- Re-arm parity -----------------------------------------------------------

/// How a harness moves a pending event to a new time.
enum class RearmMode { kReschedule, kCancelThenSchedule };

/// A seeded workload that keeps re-arming events — from the driver loop
/// and from inside running events, so pending entries of every kind move:
/// wheel-slot lists, the overflow heap, and the due run of the tick being
/// drained (including re-arms back into that same tick).
class RearmHarness {
 public:
  RearmHarness(EventQueue::Engine engine, RearmMode mode, std::uint64_t seed)
      : q_(engine), mode_(mode), rng_(seed) {}

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

  EventQueue q_;
  RearmMode mode_;
  Rng rng_;
  SimTime clock_ = 0;
  int tag_ = 0;
  std::vector<EventId> handles_;
  std::vector<EventId> issued_;
  std::vector<std::pair<SimTime, int>> trace_;
};

TEST_P(EngineDifferential, RescheduleMatchesCancelThenSchedule) {
  RearmHarness rearm(EventQueue::Engine::kTimerWheel, RearmMode::kReschedule,
                     GetParam());
  RearmHarness pair(EventQueue::Engine::kTimerWheel,
                    RearmMode::kCancelThenSchedule, GetParam());
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

TEST_P(EngineDifferential, RescheduleMatchesLegacyHeap) {
  RearmHarness wheel(EventQueue::Engine::kTimerWheel, RearmMode::kReschedule,
                     GetParam());
  RearmHarness legacy(EventQueue::Engine::kLegacyHeap, RearmMode::kReschedule,
                      GetParam());
  wheel.Run();
  legacy.Run();
  ASSERT_EQ(wheel.trace().size(), legacy.trace().size());
  for (std::size_t i = 0; i < wheel.trace().size(); ++i) {
    ASSERT_EQ(wheel.trace()[i], legacy.trace()[i])
        << "divergence at event " << i;
  }
}

/// Hand-placed re-arms of each pending kind, checked against the order a
/// cancel plus a fresh schedule must give.
std::vector<int> PlacedRearmOrder(EventQueue::Engine engine, RearmMode mode) {
  EventQueue q(engine);
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
  for (const auto engine :
       {EventQueue::Engine::kTimerWheel, EventQueue::Engine::kLegacyHeap}) {
    for (const auto mode :
         {RearmMode::kReschedule, RearmMode::kCancelThenSchedule}) {
      EXPECT_EQ(PlacedRearmOrder(engine, mode), expected);
    }
  }
}

// --- Full-simulation differentials ------------------------------------------

constexpr Ipv4Address kGroup(239, 42, 42, 42);

/// The E2/E5 join-latency experiment in miniature: joins hosts one by one
/// on a line topology and records every latency plus the control totals.
std::string JoinLatencyStats(EventQueue::Engine engine) {
  Simulator sim(1, engine);
  Topology topo = MakeLine(sim, 8);
  core::CbtDomain domain(sim, topo);
  domain.RegisterGroup(kGroup, {topo.routers[0]});
  domain.Start();
  sim.RunUntil(kSecond);

  std::ostringstream out;
  for (std::size_t i = 0; i < topo.router_lans.size(); ++i) {
    core::HostAgent& host =
        domain.AddHost(topo.router_lans[i], "h" + std::to_string(i));
    const SimTime start = sim.Now();
    host.JoinGroup(kGroup);
    std::optional<SimTime> confirmed;
    while (sim.Now() < start + 30 * kSecond) {
      sim.RunUntil(sim.Now() + kMillisecond);
      if (host.JoinConfirmed(kGroup)) {
        confirmed = sim.Now();
        break;
      }
    }
    out << "join " << i << " latency_us "
        << (confirmed ? *confirmed - start : -1) << "\n";
  }
  out << "control " << domain.TotalControlMessages() << "\n";
  out << "fib " << domain.TotalFibState() << "\n";
  return out.str();
}

TEST(EngineDifferential, JoinLatencyByteIdenticalAcrossEngines) {
  const std::string wheel = JoinLatencyStats(EventQueue::Engine::kTimerWheel);
  const std::string legacy = JoinLatencyStats(EventQueue::Engine::kLegacyHeap);
  EXPECT_EQ(wheel, legacy);
  EXPECT_NE(wheel.find("control"), std::string::npos);
}

core::CbtConfig TightConfig() {
  core::CbtConfig config;
  config.echo_interval = 5 * kSecond;
  config.echo_timeout = 15 * kSecond;
  config.pend_join_interval = 2 * kSecond;
  config.pend_join_timeout = 8 * kSecond;
  config.expire_pending_join = 30 * kSecond;
  config.child_assert_interval = 10 * kSecond;
  config.child_assert_expire = 25 * kSecond;
  config.iff_scan_interval = 60 * kSecond;
  config.reconnect_timeout = 30 * kSecond;
  config.proxy_refresh_interval = 20 * kSecond;
  return config;
}

igmp::IgmpConfig TightIgmp() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

/// A compressed chaos soak (grid topology, seeded fault plan, steady
/// traffic, recovery probes) whose full result — fault classes, recovery
/// times, delivery and control totals — is serialized for comparison.
std::string ChaosSoakStats(EventQueue::Engine engine, std::uint64_t seed) {
  Simulator sim(1, engine);
  Topology topo = MakeGrid(sim, 4, 4);
  core::CbtDomain domain(sim, topo, TightConfig(), TightIgmp());
  domain.RegisterGroup(kGroup, {topo.routers[0], topo.routers[15]});
  domain.Start();
  sim.RunUntil(kSecond);

  std::vector<core::HostAgent*> hosts;
  for (const std::size_t lan : {std::size_t{3}, std::size_t{5},
                                std::size_t{10}, std::size_t{12}}) {
    hosts.push_back(
        &domain.AddHost(topo.router_lans[lan], "m" + std::to_string(lan)));
    hosts.back()->JoinGroup(kGroup);
  }

  std::vector<NodeId> crashable(topo.routers.begin() + 1,
                                topo.routers.end() - 1);
  std::vector<SubnetId> flappable;
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    if (std::find(topo.router_lans.begin(), topo.router_lans.end(), sid) ==
        topo.router_lans.end()) {
      flappable.push_back(sid);
    }
  }

  ChaosPlanParams params;
  params.event_count = 12;
  params.start = 90 * kSecond;
  params.min_gap = 60 * kSecond;
  params.max_gap = 120 * kSecond;
  params.min_down = 5 * kSecond;
  params.max_down = 20 * kSecond;
  const ChaosPlan plan = MakeRandomPlan(seed, params, crashable, flappable);
  ChaosInjector injector(sim, domain.ChaosHooks());
  injector.Arm(plan);

  const SimTime traffic_end = plan.LastRepairTime() + 120 * kSecond;
  std::uint64_t sends = 0;
  for (SimTime t = 30 * kSecond; t < traffic_end; t += 2 * kSecond) {
    sim.ScheduleAt(t, [&hosts] {
      hosts[0]->SendToGroup(kGroup, std::vector<std::uint8_t>{0xda});
    });
    ++sends;
  }

  std::ostringstream out;
  out << plan.Describe();
  if (!analysis::RunUntilInvariantsHold(domain, params.start - kSecond)) {
    out << "warmup: FAILED\n";
  }
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const ChaosEvent& e = plan.events[i];
    sim.RunUntil(e.repair_at());
    SimTime deadline = e.repair_at() + 240 * kSecond;
    if (i + 1 < plan.events.size()) {
      deadline = std::min(deadline, plan.events[i + 1].at - kSecond);
    }
    const auto clean = analysis::RunUntilInvariantsHold(domain, deadline);
    out << "event " << i << " " << ChaosEventTypeName(e.type) << " recovery "
        << (clean ? *clean - e.at : -1) << "\n";
  }
  sim.RunUntil(traffic_end);
  std::uint64_t delivered = 0;
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    delivered += hosts[i]->ReceivedCount(kGroup);
  }
  out << "sends " << sends << " delivered " << delivered << "\n";
  out << "control " << domain.TotalControlMessages() << "\n";
  analysis::InvariantAuditor auditor(domain);
  out << auditor.Audit().Summary();
  return out.str();
}

TEST(EngineDifferential, ChaosSoakByteIdenticalAcrossEngines) {
  const std::string wheel =
      ChaosSoakStats(EventQueue::Engine::kTimerWheel, 11);
  const std::string legacy =
      ChaosSoakStats(EventQueue::Engine::kLegacyHeap, 11);
  EXPECT_EQ(wheel, legacy);
  EXPECT_NE(wheel.find("delivered"), std::string::npos);
  EXPECT_EQ(wheel.find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace cbt::netsim
