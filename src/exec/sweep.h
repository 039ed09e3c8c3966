// Deterministic parallel sweep: fan independent replicas over a Pool,
// reduce in replica order.
//
// Contract (see docs/PROTOCOL.md, "Parallel execution & determinism"):
//   * each replica runs under its own RunContext (stdout buffer, trace
//     ring, metrics registry, seed); its trace ring is installed
//     thread-locally for the duration of the job;
//   * replicas share nothing mutable — anything they build (Simulator,
//     domains, registries) lives inside the job;
//   * the reducer runs on the calling thread, strictly in index order,
//     after all replicas finish: replica i's buffered stdout is flushed
//     to std::cout, then reduce(ctx, result) is invoked. Wall-clock
//     never influences ordering, so `--jobs N` output is byte-identical
//     to `--jobs 1`.
//
// Timing: RunSweep measures per-replica and whole-sweep wall-clock and
// returns them (bench::Harness turns them into BENCH_exec.json).
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/pool.h"
#include "exec/run_context.h"

namespace cbt::exec {

struct SweepOptions {
  /// Replica i's seed: seeds[i] when provided, else base_seed + i.
  std::uint64_t base_seed = 1;
  std::vector<std::uint64_t> seeds;

  /// Give each replica a private trace ring (picked up by Simulators the
  /// replica builds). The reducer leaves the ring in ctx.trace for the
  /// caller to collect (bench::Harness adopts them).
  bool trace = false;
  obs::TraceLevel trace_level = obs::TraceLevel::kVerbose;
  std::size_t trace_capacity = std::size_t{1} << 18;
};

struct SweepTiming {
  int jobs = 1;
  double wall_seconds = 0;
  std::vector<double> replica_seconds;
};

/// Runs `job(ctx)` for `count` replicas on `pool` and feeds the results
/// to `reduce(ctx, result)` in replica order. Job must be callable from
/// worker threads and touch only its RunContext and job-local state.
template <typename Job, typename Reduce>
SweepTiming RunSweep(Pool& pool, std::size_t count,
                     const SweepOptions& options, Job&& job, Reduce&& reduce) {
  using Result = std::invoke_result_t<Job&, RunContext&>;
  using Clock = std::chrono::steady_clock;

  std::vector<std::unique_ptr<RunContext>> contexts;
  contexts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto ctx = std::make_unique<RunContext>();
    ctx->index = i;
    ctx->seed = i < options.seeds.size()
                    ? options.seeds[i]
                    : options.base_seed + static_cast<std::uint64_t>(i);
    if (options.trace) {
      ctx->trace = std::make_unique<obs::TraceBuffer>(options.trace_capacity,
                                                      options.trace_level);
    }
    contexts.push_back(std::move(ctx));
  }

  std::vector<std::optional<Result>> results(count);
  SweepTiming timing;
  timing.jobs = pool.thread_count();
  timing.replica_seconds.assign(count, 0.0);

  const auto sweep_start = Clock::now();
  pool.Run(count, [&](std::size_t i) {
    RunContext& ctx = *contexts[i];
    obs::ScopedThreadTraceBuffer trace_scope(ctx.trace.get());
    const auto start = Clock::now();
    results[i].emplace(job(ctx));
    timing.replica_seconds[i] =
        std::chrono::duration<double>(Clock::now() - start).count();
  });
  timing.wall_seconds =
      std::chrono::duration<double>(Clock::now() - sweep_start).count();

  for (std::size_t i = 0; i < count; ++i) {
    RunContext& ctx = *contexts[i];
    std::cout << ctx.out.str();
    reduce(ctx, std::move(*results[i]));
  }
  return timing;
}

}  // namespace cbt::exec
