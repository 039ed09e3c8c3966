// Per-replica isolation of everything that used to be process-global.
//
// One RunContext is the *whole world* a simulation replica may mutate
// outside its own Simulator/domain objects:
//
//   * stdout       — replicas write human output to `out`, never to
//                    std::cout; the ordered reducer flushes the buffers
//                    in replica order, which is what makes `--jobs N`
//                    byte-identical to `--jobs 1`;
//   * tracing      — an optional private obs::TraceBuffer ring, which
//                    RunSweep installs as the thread's
//                    ProcessTraceBuffer() override (even a null one: an
//                    untraced replica must not record into a traced
//                    bench's process buffer);
//   * metrics      — a private obs::Registry for the replica's bindings;
//   * RNG seeding  — the replica's seed, assigned by the sweep.
//
// Everything else a replica touches must be shared-immutable. The
// debug-build ThreadOwnershipGuard on PacketArena/EventQueue enforces
// the other direction: per-replica structures never leak across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cbt::exec {

struct RunContext {
  RunContext() = default;

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Position in the sweep; fixes the reduction (and output) order.
  std::size_t index = 0;
  /// The replica's RNG seed (chaos plans, workload generators...).
  std::uint64_t seed = 0;

  /// Replica stdout — flushed to std::cout in replica order.
  std::ostringstream out;

  /// Private trace ring (null = tracing off for this replica).
  std::unique_ptr<obs::TraceBuffer> trace;
  /// Private metrics registry (never shared across replicas).
  obs::Registry metrics;
};

}  // namespace cbt::exec
