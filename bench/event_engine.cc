// Event-engine microbenchmark: timer wheel vs. the legacy heap.
//
// Two workloads modelled on what the simulator actually does:
//  * cancel-rearm — the keepalive/refresh pattern that dominates large
//    topologies: a standing population of timers is repeatedly answered
//    (cancelled) and re-armed before firing. The legacy engine leaves a
//    tombstone per cancel, so its heap keeps growing mid-run; the wheel
//    reclaims slots in O(1).
//  * schedule-drain — schedule a batch at random times, run to empty:
//    the pure event-dispatch path (frame deliveries).
//
// Both workloads are seeded and also compare a fire-order checksum
// across engines, so the bench doubles as a quick determinism probe.
// Results go to stdout and to BENCH_event_engine.json (overridable with
// --json) so CI can track the perf trajectory; --smoke shrinks
// the sizes for a fast correctness-only pass.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "netsim/event_queue.h"

namespace {

using namespace cbt;  // NOLINT
using netsim::EventId;
using netsim::EventQueue;

struct WorkloadResult {
  std::string name;
  std::string engine;
  std::uint64_t ops = 0;
  double seconds = 0;
  std::uint64_t checksum = 0;

  double mops() const { return ops / seconds / 1e6; }
};

const char* EngineName(EventQueue::Engine engine) {
  return engine == EventQueue::Engine::kTimerWheel ? "wheel" : "legacy";
}

/// Standing population of `timers` keepalives; each op answers one timer
/// (cancel) and re-arms it at a fresh horizon, with a slice of events
/// actually firing to keep the clock moving.
WorkloadResult CancelRearm(EventQueue::Engine engine, std::size_t timers,
                           std::uint64_t ops) {
  Rng rng(42);
  EventQueue q(engine);
  SimTime clock = 0;
  std::uint64_t checksum = 0;
  std::vector<EventId> ids(timers, netsim::kInvalidEventId);
  for (std::size_t i = 0; i < timers; ++i) {
    const SimTime when = clock + 1 + static_cast<SimTime>(
                                         rng.NextBelow(60 * kSecond));
    ids[i] = q.ScheduleAt(when, [&checksum, when] {
      checksum = checksum * 31 + static_cast<std::uint64_t>(when);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::size_t pick = rng.NextBelow(timers);
    q.Cancel(ids[pick]);  // timer answered before firing
    const SimTime when = clock + 1 + static_cast<SimTime>(
                                         rng.NextBelow(60 * kSecond));
    ids[pick] = q.ScheduleAt(when, [&checksum, when] {
      checksum = checksum * 31 + static_cast<std::uint64_t>(when);
    });
    if ((op & 63) == 0) q.RunNext(clock);  // some timers do fire
  }
  const auto stop = std::chrono::steady_clock::now();
  while (q.RunNext(clock)) {
  }
  WorkloadResult r;
  r.name = "cancel_rearm";
  r.engine = EngineName(engine);
  r.ops = ops * 2;  // one cancel + one schedule per iteration
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.checksum = checksum;
  return r;
}

/// Schedules `events` closures at seeded random times, then drains the
/// queue — the frame-delivery dispatch path.
WorkloadResult ScheduleDrain(EventQueue::Engine engine, std::uint64_t events) {
  Rng rng(7);
  EventQueue q(engine);
  SimTime clock = 0;
  std::uint64_t checksum = 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t scheduled = 0;
  while (scheduled < events) {
    const std::uint64_t batch = std::min<std::uint64_t>(
        events - scheduled, 1 + rng.NextBelow(64));
    for (std::uint64_t i = 0; i < batch; ++i) {
      const SimTime when =
          clock + static_cast<SimTime>(rng.NextBelow(10 * kSecond));
      q.ScheduleAt(when, [&checksum, when] {
        checksum = checksum * 131 + static_cast<std::uint64_t>(when);
      });
    }
    scheduled += batch;
    for (int i = 0; i < 32; ++i) {
      if (!q.RunNext(clock)) break;
    }
  }
  while (q.RunNext(clock)) {
  }
  const auto stop = std::chrono::steady_clock::now();
  WorkloadResult r;
  r.name = "schedule_drain";
  r.engine = EngineName(engine);
  r.ops = events * 2;  // one schedule + one dispatch per event
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.checksum = checksum;
  return r;
}

void PrintRow(const WorkloadResult& r) {
  std::cout << "  " << r.name << " [" << r.engine << "]: " << r.ops
            << " ops in " << r.seconds << " s = " << r.mops()
            << " Mops/s (checksum " << r.checksum << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts("event_engine",
                      "event-engine microbench: timer wheel vs legacy heap");
  opts.json_path = "BENCH_event_engine.json";  // always reported
  // Timing microbench: serial by default so parallel replicas cannot
  // distort the wheel-vs-legacy wall-clock comparison (--jobs opts in;
  // the fire-order checksums stay identical either way).
  opts.jobs = 1;
  opts.Parse(argc, argv);
  bench::TraceSession trace(opts.trace_path);
  exec::Pool pool(opts.jobs);
  bench::ExecReport exec_report(opts.bench_name());
  const bool smoke = opts.smoke;

  const std::size_t timers = smoke ? 2'000 : 100'000;
  const std::uint64_t rearm_ops = smoke ? 20'000 : 2'000'000;
  const std::uint64_t drain_events = smoke ? 20'000 : 2'000'000;

  std::cout << "Event engine bench (" << (smoke ? "smoke" : "full")
            << "): " << timers << " standing timers, " << rearm_ops
            << " cancel/re-arm ops, " << drain_events
            << " schedule/drain events\n";

  // Four independent (workload, engine) replicas over the --jobs pool.
  std::vector<WorkloadResult> results(4);
  exec_report.Add(
      "workloads",
      exec::RunSweep(
          pool, results.size(), bench::MakeSweepOptions(opts, trace),
          [&](exec::RunContext& ctx) -> WorkloadResult {
            switch (ctx.index) {
              case 0:
                return CancelRearm(EventQueue::Engine::kTimerWheel, timers,
                                   rearm_ops);
              case 1:
                return CancelRearm(EventQueue::Engine::kLegacyHeap, timers,
                                   rearm_ops);
              case 2:
                return ScheduleDrain(EventQueue::Engine::kTimerWheel,
                                     drain_events);
              default:
                return ScheduleDrain(EventQueue::Engine::kLegacyHeap,
                                     drain_events);
            }
          },
          [&](exec::RunContext& ctx, WorkloadResult r) {
            results[ctx.index] = std::move(r);
            trace.Adopt(std::move(ctx.trace));
          }));
  for (const WorkloadResult& r : results) PrintRow(r);

  bool deterministic = true;
  double rearm_speedup = 0;
  double drain_speedup = 0;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const WorkloadResult& wheel = results[i];
    const WorkloadResult& legacy = results[i + 1];
    if (wheel.checksum != legacy.checksum) {
      deterministic = false;
      std::cout << "DETERMINISM MISMATCH in " << wheel.name << "\n";
    }
    const double speedup = legacy.seconds / wheel.seconds;
    (wheel.name == "cancel_rearm" ? rearm_speedup : drain_speedup) = speedup;
    std::cout << "  " << wheel.name << " speedup: " << speedup << "x\n";
  }

  bench::JsonReporter report(opts.bench_name());
  report.Param("mode", smoke ? "smoke" : "full");
  report.Param("deterministic", deterministic);
  report.Param("timers", static_cast<std::uint64_t>(timers));
  auto& ops_series = report.AddSeries("ops", "ops");
  auto& secs_series = report.AddSeries("seconds", "s");
  auto& mops_series = report.AddSeries("mops", "Mops/s");
  for (const WorkloadResult& r : results) {
    const std::string label = r.name + "/" + r.engine;
    ops_series.Add(label, r.ops);
    secs_series.Add(label, r.seconds);
    mops_series.Add(label, r.mops());
  }
  auto& speedup = report.AddSeries("speedup", "x");
  speedup.Add("cancel_rearm", rearm_speedup);
  speedup.Add("schedule_drain", drain_speedup);
  report.WriteFile(opts.json_path);
  exec_report.WriteIfRequested(opts);

  return deterministic ? 0 : 1;
}
