// Tests for the space-parallel PDES runtime (exec/pdes/runtime).
//
// The determinism contract under test: a simulation sharded into N
// regions produces the same results for every N and every worker-thread
// count — same final clock, same protocol state, same per-subnet
// counters, same merged trace. The serial (no-backend) engine is a
// *different* scheduler (different tie rule, one global RNG stream), so
// PDES runs are compared to it structurally (protocol outcomes), not
// byte-for-byte.
//
// Threading note: this suite forces worker threads via the Runtime's
// `threads` parameter so the window barriers, guard handoff, and the
// trace side-log merge are exercised even on single-core CI runners
// (where the auto-derived worker count is 1). The whole binary carries
// the `exec` ctest label, so TSan CI sees these barriers under real
// contention.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cbt/domain.h"
#include "common/types.h"
#include "exec/pdes/region_queue.h"
#include "exec/pdes/runtime.h"
#include "exec/pool.h"
#include "netsim/event_queue.h"
#include "netsim/simulator.h"
#include "netsim/topologies.h"
#include "obs/trace.h"

namespace {

using namespace cbt;  // NOLINT
using exec::pdes::EventKey;
using exec::pdes::RegionQueue;
using exec::pdes::Runtime;

constexpr Ipv4Address kGroup(239, 9, 9, 9);

/// Everything observable about a finished scenario run. Two PDES runs
/// with different shard/thread counts must compare equal on all fields.
struct Signature {
  SimTime now = 0;
  std::vector<NodeId> on_tree;
  std::map<std::string, std::uint64_t> received;
  std::vector<std::uint64_t> subnet_frames;
  std::vector<std::uint64_t> subnet_bytes;
  std::size_t trace_emitted = 0;

  bool operator==(const Signature&) const = default;
};

/// Figure-1 walkthrough under a given engine configuration. `shards` 0
/// means the classic serial engine (no backend installed).
Signature RunScenario(int shards, int threads) {
  netsim::Simulator sim(7);
  obs::TraceBuffer trace(1 << 16, obs::TraceLevel::kSpans);
  sim.SetTrace(&trace);
  netsim::Topology topo = netsim::MakeFigure1(sim);
  // Outlives the domain: timer dtors cancel through the backend.
  std::unique_ptr<Runtime> pdes;
  core::CbtDomain domain(sim, topo);
  if (shards > 0) {
    pdes = std::make_unique<Runtime>(sim, shards, threads);
    pdes->Install();
    domain.ShardRoutes(pdes->region_count(),
                       [&pdes](NodeId id) { return pdes->RegionOf(id); });
  }
  domain.RegisterGroup(kGroup, {topo.node("R4")});
  domain.Start();
  sim.RunUntil(kSecond);

  for (const char* member : {"A", "B", "G", "H"}) {
    domain.host(member).JoinGroup(kGroup);
  }
  sim.RunUntil(10 * kSecond);
  for (int i = 0; i < 3; ++i) {
    const std::string payload = "pdes-" + std::to_string(i);
    domain.host("C").SendToGroup(
        kGroup,
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(payload.data()),
            payload.size()));
    sim.RunUntil(sim.Now() + kSecond);
  }
  sim.RunUntil(20 * kSecond);

  Signature out;
  out.now = sim.Now();
  out.on_tree = domain.OnTreeRouters(kGroup);
  std::sort(out.on_tree.begin(), out.on_tree.end(),
            [](NodeId a, NodeId b) { return a.value() < b.value(); });
  for (const char* member : {"A", "B", "C", "G", "H"}) {
    out.received[member] = domain.host(member).ReceivedCount(kGroup);
  }
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const auto& rec = sim.subnet(SubnetId(static_cast<std::uint32_t>(s)));
    out.subnet_frames.push_back(rec.counters.frames_sent);
    out.subnet_bytes.push_back(rec.counters.bytes_sent);
  }
  out.trace_emitted = static_cast<std::size_t>(trace.emitted());
  return out;
}

TEST(PdesRuntimeTest, ShardCountDoesNotChangeResults) {
  const Signature base = RunScenario(/*shards=*/1, /*threads=*/1);
  // The members actually received the three datagrams — guards against
  // vacuous equality between broken runs.
  EXPECT_EQ(base.received.at("A"), 3u);
  EXPECT_EQ(base.received.at("H"), 3u);
  EXPECT_EQ(base.received.at("C"), 0u);  // sender is not a member
  EXPECT_FALSE(base.on_tree.empty());
  EXPECT_GT(base.trace_emitted, 0u);

  for (const int shards : {2, 4, 8}) {
    const Signature got = RunScenario(shards, /*threads=*/1);
    EXPECT_EQ(got, base) << "shards=" << shards;
  }
}

TEST(PdesRuntimeTest, WorkerThreadsDoNotChangeResults) {
  const Signature base = RunScenario(/*shards=*/4, /*threads=*/1);
  for (const int threads : {2, 4}) {
    const Signature got = RunScenario(/*shards=*/4, threads);
    EXPECT_EQ(got, base) << "threads=" << threads;
  }
}

TEST(PdesRuntimeTest, MatchesSerialEngineStructurally) {
  // The serial engine draws from one global RNG stream, so event timing
  // (and with it trace sizes / frame counts) legitimately differs; the
  // protocol outcome — who is on the tree, who got the data — must not.
  const Signature serial = RunScenario(/*shards=*/0, /*threads=*/0);
  const Signature pdes = RunScenario(/*shards=*/4, /*threads=*/1);
  EXPECT_EQ(pdes.on_tree, serial.on_tree);
  EXPECT_EQ(pdes.received, serial.received);
  EXPECT_EQ(pdes.now, serial.now);
}

TEST(PdesRuntimeTest, RegionAndWorkerCountsClampSensibly) {
  netsim::Simulator sim(3);
  netsim::MakeLine(sim, 4);
  Runtime rt(sim, /*shards=*/64, /*threads=*/8);
  rt.Install();
  EXPECT_GE(rt.region_count(), 1);
  EXPECT_LE(rt.region_count(), 8);  // 4 routers + 4 stub-LAN supernodes
  EXPECT_LE(rt.worker_count(), rt.region_count());
  EXPECT_GT(rt.lookahead(), 0);
  for (std::size_t n = 0; n < sim.node_count(); ++n) {
    const int r = rt.RegionOf(NodeId(static_cast<std::uint32_t>(n)));
    EXPECT_GE(r, 0);
    EXPECT_LT(r, rt.region_count());
  }
}

TEST(PdesRuntimeTest, ScheduleAndCancelWorkUnderBackend) {
  netsim::Simulator sim(3);
  netsim::MakeLine(sim, 6);
  Runtime rt(sim, /*shards=*/2, /*threads=*/1);
  rt.Install();
  int fired = 0;
  sim.Schedule(kMillisecond, [&] { ++fired; });
  const netsim::EventId cancelled =
      sim.Schedule(2 * kMillisecond, [&] { fired += 100; });
  EXPECT_TRUE(sim.Cancel(cancelled));
  EXPECT_FALSE(sim.Cancel(cancelled));  // already gone
  EXPECT_FALSE(sim.Cancel(netsim::kInvalidEventId));  // no backend bit set
  sim.RunUntil(kSecond);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), kSecond);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(PdesRuntimeTest, CoordinatorCrashAndRestartKeepRouterTimersInRegion) {
  // Chaos hooks crash and restart routers from coordinator context. The
  // restarted router's timers must be scheduled in its own region: in the
  // coordinator queue they would later be re-armed and cancelled by the
  // region's worker thread. Coordinator-context work draws its packets
  // from the simulator's base arena and region work from the region
  // arenas, so any router work left in the coordinator queue shows up as
  // base-arena packets.
  netsim::Simulator sim(7);
  netsim::Topology topo = netsim::MakeFigure1(sim);
  core::CbtDomain domain(sim, topo);
  Runtime pdes(sim, /*shards=*/4, /*threads=*/1);
  pdes.Install();
  domain.ShardRoutes(pdes.region_count(),
                     [&pdes](NodeId id) { return pdes.RegionOf(id); });
  domain.RegisterGroup(kGroup, {topo.node("R4")});
  domain.Start();
  domain.host("A").JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);
  const NodeId r1 = topo.node("R1");
  ASSERT_TRUE(domain.router(r1).IsOnTree(kGroup));
  const std::uint64_t base_makes = sim.packet_arena().total_makes();

  domain.CrashRouter(r1);
  sim.RunUntil(20 * kSecond);
  domain.RestartRouter(r1);
  sim.RunUntil(200 * kSecond);

  EXPECT_TRUE(domain.router(r1).IsOnTree(kGroup));  // re-joined
  EXPECT_EQ(sim.packet_arena().total_makes(), base_makes);
}

// --- Pool::RunWith ---------------------------------------------------------

TEST(PoolRunWithTest, RunsEveryTaskAndTheCallerTask) {
  exec::Pool pool(4);
  constexpr std::size_t kTasks = 16;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<bool> caller_ran{false};
  pool.RunWith(
      kTasks, [&](std::size_t i) { hits[i].fetch_add(1); },
      [&] { caller_ran.store(true); });
  EXPECT_TRUE(caller_ran.load());
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(PoolRunWithTest, CallerTaskOverlapsWorkersOnARealPool) {
  // The PDES coordinator depends on the caller task running *while* the
  // workers run (it feeds them windows). Prove a worker makes progress
  // during caller_task: the caller waits (bounded) for a worker's mark.
  exec::Pool pool(2);
  std::atomic<bool> worker_marked{false};
  bool observed = false;
  pool.RunWith(
      1, [&](std::size_t) { worker_marked.store(true); },
      [&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!worker_marked.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        observed = worker_marked.load();
      });
  EXPECT_TRUE(observed);
}

TEST(PoolRunWithTest, InlinePoolRunsTasksBeforeCaller) {
  exec::Pool pool(1);
  std::vector<int> order;
  pool.RunWith(
      2, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
      [&] { order.push_back(100); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 100}));
}

// --- Ownership guard -------------------------------------------------------

#ifndef NDEBUG
void TouchRegionQueueFromSecondThread() {
  RegionQueue queue;
  queue.Schedule(EventKey{kMillisecond, -1, 0}, -1, [] {});  // binds owner
  std::thread([&] {
    // Cross-region touch without a guard handoff: must abort in debug.
    queue.Schedule(EventKey{2 * kMillisecond, -1, 1}, -1, [] {});
  }).join();
}
#endif

TEST(PdesGuardDeathTest, RegionQueueSecondThreadAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "ThreadOwnershipGuard compiles away in NDEBUG builds";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(TouchRegionQueueFromSecondThread(),
               "exec::pdes::RegionQueue touched from a second thread");
#endif
}

TEST(PdesGuardTest, HandoffAfterReleaseIsLegal) {
  // The window barrier releases region ownership before workers adopt
  // the queues; the same handoff done by hand must not abort.
  RegionQueue queue;
  queue.Schedule(EventKey{kMillisecond, -1, 0}, -1, [] {});
  queue.ReleaseOwnership();
  std::thread([&] {
    EventKey key;
    std::int32_t affinity = 0;
    ASSERT_FALSE(queue.Empty());
    netsim::EventFn fn = queue.PopFront(&key, &affinity);
    fn();
    queue.ReleaseOwnership();
  }).join();
  EXPECT_TRUE(queue.Empty());
}

}  // namespace
