// Tests for the parallel replica executor (src/exec/): pool scheduling,
// the ordered-reduction determinism contract, per-replica isolation of
// tracing / metrics, and the debug-build ownership guard.
//
// The whole suite carries the `exec` ctest label so CI can run it under
// ThreadSanitizer (-DCBT_TSAN=ON, `ctest -L exec`) — the concurrency
// tests below deliberately force replica overlap so TSan sees the
// thread-local isolation machinery under real contention.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cbt/domain.h"
#include "common/thread_guard.h"
#include "exec/pool.h"
#include "exec/run_context.h"
#include "exec/sweep.h"
#include "netsim/event_queue.h"
#include "netsim/packet_arena.h"
#include "netsim/topologies.h"
#include "obs/trace.h"

namespace {

using namespace cbt;  // NOLINT

/// Redirects a std stream into a private buffer for the object's
/// lifetime (RunSweep flushes replica output to std::cout).
class StreamCapture {
 public:
  explicit StreamCapture(std::ostream& os)
      : os_(os), old_(os.rdbuf(buffer_.rdbuf())) {}
  ~StreamCapture() { os_.rdbuf(old_); }
  std::string str() const { return buffer_.str(); }

 private:
  std::ostream& os_;
  std::ostringstream buffer_;
  std::streambuf* old_;
};

// --- Pool ------------------------------------------------------------------

TEST(PoolTest, RunsEveryIndexExactlyOnce) {
  exec::Pool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr std::size_t kTasks = 100;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.Run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(PoolTest, ReusableAcrossRuns) {
  exec::Pool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> ran{0};
    pool.Run(17, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 17);
  }
}

TEST(PoolTest, FirstExceptionRethrownAfterAllTasksFinish) {
  exec::Pool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.Run(16,
               [&](std::size_t i) {
                 if (i == 3) throw std::runtime_error("replica 3 failed");
                 completed.fetch_add(1);
               }),
      std::runtime_error);
  // Every non-throwing task still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 15);
}

TEST(PoolTest, SingleThreadPoolRunsInlineInIndexOrder) {
  exec::Pool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.Run(8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(PoolTest, ZeroPicksHardwareConcurrency) {
  exec::Pool pool(0);
  EXPECT_EQ(pool.thread_count(), exec::Pool::HardwareConcurrency());
  EXPECT_GE(exec::Pool::HardwareConcurrency(), 1);
}

// --- RunSweep: ordering and determinism ------------------------------------

TEST(SweepTest, SeedsAssignedFromBaseAndExplicitList) {
  exec::Pool pool(2);
  exec::SweepOptions options;
  options.base_seed = 100;
  options.seeds = {7, 9};  // replicas 2..4 fall back to base_seed + i
  std::vector<std::uint64_t> seeds(5, 0);
  exec::RunSweep(
      pool, seeds.size(), options,
      [](exec::RunContext& ctx) { return ctx.seed; },
      [&](exec::RunContext& ctx, std::uint64_t seed) {
        seeds[ctx.index] = seed;
      });
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{7, 9, 102, 103, 104}));
}

TEST(SweepTest, ReducesInIndexOrderRegardlessOfCompletionOrder) {
  exec::Pool pool(4);
  exec::SweepOptions options;
  std::vector<std::size_t> reduced;
  exec::RunSweep(
      pool, 8, options,
      [](exec::RunContext& ctx) {
        // Later indices finish first, so completion order inverts
        // index order under parallel execution.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2 * (8 - ctx.index)));
        return ctx.index;
      },
      [&](exec::RunContext& ctx, std::size_t result) {
        EXPECT_EQ(result, ctx.index);
        reduced.push_back(ctx.index);
      });
  ASSERT_EQ(reduced.size(), 8u);
  for (std::size_t i = 0; i < reduced.size(); ++i) EXPECT_EQ(reduced[i], i);
}

TEST(SweepTest, ParallelStdoutByteIdenticalToSerial) {
  const auto run = [](int jobs) {
    exec::Pool pool(jobs);
    exec::SweepOptions options;
    options.base_seed = 42;
    StreamCapture out(std::cout);
    exec::RunSweep(
        pool, 6, options,
        [](exec::RunContext& ctx) -> int {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(6 - ctx.index));
          ctx.out << "replica " << ctx.index << " seed " << ctx.seed << "\n";
          return 0;
        },
        [](exec::RunContext&, int) {});
    return out.str();
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_NE(serial.find("replica 0 seed 42"), std::string::npos);
  EXPECT_NE(serial.find("replica 5 seed 47"), std::string::npos);
}

TEST(SweepTest, TimingCoversEveryReplica) {
  exec::Pool pool(2);
  const exec::SweepTiming timing = exec::RunSweep(
      pool, 5, exec::SweepOptions{},
      [](exec::RunContext&) { return 0; },
      [](exec::RunContext&, int) {});
  EXPECT_EQ(timing.jobs, 2);
  ASSERT_EQ(timing.replica_seconds.size(), 5u);
  EXPECT_GE(timing.wall_seconds, 0.0);
  for (const double s : timing.replica_seconds) EXPECT_GE(s, 0.0);
}

// --- Per-replica obs isolation (metrics + tracing) -------------------------

namespace obs_isolation {

constexpr Ipv4Address kGroup(239, 7, 0, 1);

/// A small but real workload: Figure-1 CBT domain, `1 + index % 3` hosts
/// join, a few seconds of protocol time. Distinct indices produce
/// distinct metric/trace streams, which is what makes cross-replica
/// bleed detectable.
struct ReplicaObs {
  obs::MetricSet metrics;
  std::string chrome_trace;
  std::uint64_t trace_emitted = 0;
};

ReplicaObs RunReplica(exec::RunContext& ctx) {
  netsim::Simulator sim(ctx.seed);
  // The Simulator picked up ctx.trace through the thread-local
  // ProcessTraceBuffer override RunSweep installs.
  EXPECT_EQ(sim.trace(), ctx.trace.get());
  netsim::Topology topo = netsim::MakeFigure1(sim);
  core::CbtDomain domain(sim, topo);
  domain.BindMetrics(ctx.metrics);
  domain.RegisterGroup(kGroup, {topo.node("R4")});
  domain.Start();
  sim.RunUntil(kSecond);
  const char* hosts[] = {"A", "B", "G"};
  for (std::size_t h = 0; h < 1 + ctx.index % 3; ++h) {
    domain.host(hosts[h]).JoinGroup(kGroup);
  }
  sim.RunUntil(20 * kSecond);

  ReplicaObs result;
  result.metrics = ctx.metrics.Snapshot();
  if (ctx.trace != nullptr) {
    std::ostringstream os;
    ctx.trace->ExportChromeTrace(os);
    result.chrome_trace = os.str();
    result.trace_emitted = ctx.trace->emitted();
  }
  return result;
}

std::vector<ReplicaObs> RunSweepWithJobs(int jobs, std::size_t replicas) {
  exec::Pool pool(jobs);
  exec::SweepOptions options;
  options.base_seed = 5;
  options.trace = true;
  std::vector<ReplicaObs> results(replicas);
  StreamCapture out(std::cout);
  exec::RunSweep(pool, replicas, options, RunReplica,
                 [&](exec::RunContext& ctx, ReplicaObs r) {
                   results[ctx.index] = std::move(r);
                 });
  return results;
}

void ExpectSameSamples(const obs::MetricSet& a, const obs::MetricSet& b,
                       std::size_t replica) {
  ASSERT_EQ(a.size(), b.size()) << "replica " << replica;
  auto it_b = b.begin();
  for (const obs::Sample& sample : a) {
    EXPECT_EQ(sample.name, it_b->name) << "replica " << replica;
    EXPECT_EQ(sample.value, it_b->value)
        << "replica " << replica << " metric " << sample.name;
    ++it_b;
  }
}

TEST(SweepIsolationTest, ConcurrentReplicasProduceSerialMetricsAndTraces) {
  constexpr std::size_t kReplicas = 6;
  const auto serial = RunSweepWithJobs(1, kReplicas);
  const auto parallel = RunSweepWithJobs(4, kReplicas);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < kReplicas; ++i) {
    EXPECT_FALSE(serial[i].metrics.empty()) << "replica " << i;
    ExpectSameSamples(serial[i].metrics, parallel[i].metrics, i);
    EXPECT_GT(serial[i].trace_emitted, 0u) << "replica " << i;
    EXPECT_EQ(serial[i].trace_emitted, parallel[i].trace_emitted)
        << "replica " << i;
    EXPECT_EQ(serial[i].chrome_trace, parallel[i].chrome_trace)
        << "replica " << i;
  }
  // Replicas with different member counts genuinely differ — the
  // byte-equal assertions above are not vacuous.
  EXPECT_NE(parallel[0].chrome_trace, parallel[1].chrome_trace);
  EXPECT_GT(parallel[1].metrics.SumWithSuffix(".joins_originated"),
            parallel[0].metrics.SumWithSuffix(".joins_originated"));
}

TEST(SweepIsolationTest, UntracedReplicaMasksProcessTraceBuffer) {
  obs::TraceBuffer process_ring(1 << 10, obs::TraceLevel::kVerbose);
  obs::SetProcessTraceBuffer(&process_ring);
  exec::Pool pool(2);
  exec::SweepOptions options;  // trace = false: replicas run untraced
  exec::RunSweep(
      pool, 4, options,
      [](exec::RunContext& ctx) -> int {
        // An untraced replica must not see (or record into) the bench
        // main's process buffer: the null override masks it.
        EXPECT_EQ(obs::ProcessTraceBuffer(), nullptr);
        EXPECT_EQ(ctx.trace, nullptr);
        netsim::Simulator sim(ctx.seed);
        EXPECT_EQ(sim.trace(), nullptr);
        netsim::Topology topo = netsim::MakeFigure1(sim);
        core::CbtDomain domain(sim, topo);
        domain.RegisterGroup(kGroup, {topo.node("R4")});
        domain.Start();
        sim.RunUntil(5 * kSecond);
        return 0;
      },
      [](exec::RunContext&, int) {});
  EXPECT_EQ(obs::ProcessTraceBuffer(), &process_ring);
  EXPECT_EQ(process_ring.emitted(), 0u);
  obs::SetProcessTraceBuffer(nullptr);
}

}  // namespace obs_isolation

// --- Debug-build cross-thread ownership guard ------------------------------

TEST(ThreadGuardTest, ReleaseOwnershipAllowsHandoffBetweenThreads) {
  ThreadOwnershipGuard guard;
  guard.AssertOwned("test object");  // binds to this thread
  guard.AssertOwned("test object");  // same thread: fine
  guard.ReleaseOwnership();
  std::thread([&guard] { guard.AssertOwned("test object"); }).join();
}

#ifndef NDEBUG
void TouchEventQueueFromSecondThread() {
  netsim::EventQueue q;
  q.ScheduleAt(1, [] {});  // binds ownership here
  std::thread([&q] {
    SimTime clock = 0;
    q.RunNext(clock);  // second thread must abort
  }).join();
}

void TouchPacketArenaFromSecondThread() {
  netsim::PacketArena arena;
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  netsim::PacketRef ref = arena.Make(bytes);  // binds ownership
  std::thread([&arena, &bytes] {
    netsim::PacketRef other = arena.Make(bytes);
    (void)other;
  }).join();
}
#endif

TEST(ThreadGuardDeathTest, EventQueueSecondThreadAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "ThreadOwnershipGuard compiles away in NDEBUG builds";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(TouchEventQueueFromSecondThread(),
               "netsim::EventQueue touched from a second thread");
#endif
}

TEST(ThreadGuardDeathTest, PacketArenaSecondThreadAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "ThreadOwnershipGuard compiles away in NDEBUG builds";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(TouchPacketArenaFromSecondThread(),
               "netsim::PacketArena touched from a second thread");
#endif
}

}  // namespace
