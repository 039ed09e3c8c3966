// Space-parallel PDES runtime: shards one simulation across cores.
//
// The runtime implements netsim::ShardBackend. Install() partitions the
// topology (see partition.h) into regions, each owning a RegionQueue, a
// PacketArena, a trace side-log, and per-cut-subnet counter deltas, then
// routes the Simulator through itself. Synchronisation is conservative
// time-window: the coordinator repeatedly computes
//
//   B = min next event time over all region queues
//   E = min(bound, B + lookahead - 1)
//
// and has every region execute its events with time in [B, E] in
// parallel. A frame sent at t >= B crosses a region boundary no earlier
// than t + lookahead > E, so no region can receive a message for the
// window it is executing. Cross-region deliveries travel as byte-copy
// messages on per-region mutex inboxes, drained into the destination
// queue at the barrier; intra-region deliveries stay refcounted
// PacketRefs.
//
// Determinism: every event carries a partition-invariant key
// (when, scheduling context, per-context sequence) — see region_queue.h.
// Each node's execution sequence, RNG draws (per-node streams derived
// from the sim seed), counters, and trace emissions are therefore
// identical for ANY region count, including --shards 1, whose single
// region runs through this exact engine on the calling thread. Region
// trace side-logs merge into the simulation's base ring in key order at
// every barrier, and cut-subnet counter deltas flush before coordinator
// code can observe them, so all outputs are byte-identical across shard
// counts. (PDES mode is NOT byte-identical to the classic serial engine:
// the key tie-rule and per-node RNG streams intentionally differ; the
// serial path itself is untouched.)
//
// Threading: with worker threads enabled the coordinator runs inside
// exec::Pool::RunWith — one phase (= one RunUntil call) wakes the
// workers once; within the phase they spin on a window-generation
// counter, execute their regions (region r belongs to worker
// r % workers), and report a done count. Guards on region queues/arenas
// are released at the barriers for the coordinator<->worker handoff;
// memory is published by the barrier atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "exec/pdes/partition.h"
#include "exec/pdes/region_queue.h"
#include "exec/pool.h"
#include "netsim/packet_arena.h"
#include "netsim/simulator.h"
#include "obs/trace.h"

namespace cbt::exec::pdes {

class Runtime final : public netsim::ShardBackend {
 public:
  /// `shards` = requested region count (clamped to [1, 64]). `threads`:
  /// 0 derives min(regions, hardware cores); 1 forces the single-thread
  /// engine (same windows, same bytes); N forces N pool workers (tests
  /// exercise the threaded barriers on any machine this way).
  explicit Runtime(netsim::Simulator& sim, int shards, int threads = 0);
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Partitions the topology and routes `sim` through this runtime. Call
  /// after topology construction, before anything schedules events.
  void Install();

  int region_count() const { return part_.regions; }
  int worker_count() const { return worker_count_; }
  SimDuration lookahead() const { return part_.lookahead; }
  const Partition& partition() const { return part_; }
  /// Region of `node`, assigning post-partition nodes on first use.
  int RegionOf(NodeId node) { return RegionOfNode(node.value()); }

  // --- netsim::ShardBackend ----------------------------------------------
  SimTime Now() const override;
  Rng& ContextRng() override;
  obs::TraceBuffer* ContextTrace() override;
  netsim::PacketArena& ContextArena() override;
  netsim::SubnetCounters& CountersFor(netsim::SubnetRecord& subnet) override;
  netsim::EventId Schedule(SimTime when, netsim::EventFn fn) override;
  bool Cancel(netsim::EventId id) override;
  void ScheduleDelivery(SimTime when, NodeId receiver, VifIndex vif,
                        Ipv4Address link_src, Ipv4Address link_dst,
                        const netsim::PacketRef& payload) override;
  void RunUntil(SimTime until) override;
  void RunUntilIdle(std::size_t max_events) override;
  std::int32_t ExchangeAffinity(std::int32_t node) override;

 private:
  /// A delivery that crossed a region boundary: the payload is copied to
  /// bytes (packet arenas are region-local) and the partition-invariant
  /// key travels with it, so the destination queue orders it exactly
  /// where any other region count would.
  struct BoundaryMessage {
    EventKey key;
    NodeId receiver;
    VifIndex vif = kInvalidVif;
    Ipv4Address link_src;
    Ipv4Address link_dst;
    std::vector<std::uint8_t> bytes;
  };

  /// One trace emission attributed to the event (key) that produced it;
  /// side-logs merge by key at barriers.
  struct TraceEntry {
    EventKey key;
    obs::TraceEvent event;
  };

  struct Region {
    // Arena precedes the queue: pending closures hold PacketRefs.
    netsim::PacketArena arena;
    RegionQueue queue;
    SimTime clock = 0;  // local time while executing a window
    std::uint64_t executed = 0;

    std::mutex inbox_mu;
    std::vector<BoundaryMessage> inbox;

    /// Scratch ring events are drained into per event, then the
    /// key-attributed side log merged at barriers. Null when tracing off.
    std::unique_ptr<obs::TraceBuffer> ring;
    std::vector<TraceEntry> trace_log;
    std::size_t trace_cursor = 0;  // merge scratch

    /// Cut-subnet counter deltas (indexed by subnet id) + dirty list.
    std::vector<netsim::SubnetCounters> cut_delta;
    std::vector<bool> cut_dirty;
    std::vector<std::int32_t> dirty_subnets;
  };

  /// Per-thread execution context; `runtime` scopes the slot so stale
  /// values from another runtime on the same thread are ignored.
  struct ThreadContext {
    Runtime* runtime = nullptr;
    int region = -1;  // executing region, -1 = coordinator
    std::int32_t affinity = -1;
  };
  static thread_local ThreadContext tls_;

  std::int32_t CurrentAffinity() const {
    return tls_.runtime == this ? tls_.affinity : -1;
  }
  int CurrentRegion() const {
    return tls_.runtime == this ? tls_.region : -1;
  }
  /// Region whose state the current context owns: the affinity node's
  /// region, else the executing region, else -1 (coordinator).
  int EffectiveRegion() const;

  int RegionOfNode(std::int32_t node);
  /// Grows the per-node tables (region, seq, rng) to sim_.node_count();
  /// coordinator-only (new nodes appear only between events).
  void EnsureNodeTables();
  std::uint64_t NextSeq(std::int32_t src);

  // Window machinery; all coordinator-side unless noted.
  void CoordinatorBody(SimTime until);
  /// Runs all region events with time <= bound (windowed).
  void AdvanceRegions(SimTime bound);
  void RunWindow(SimTime end);
  /// Executes one region's events with time <= end. Worker or
  /// coordinator thread, per the phase mode.
  void ExecuteRegionWindow(int region_index, SimTime end);
  void RunCoordinatorEventsAt(SimTime when);
  void DrainInboxes();
  void MergeRegionTraces();
  void FlushCutDeltas();
  void ReleaseRegionGuards();
  void WorkerPhase(std::size_t worker);
  /// Min next region event time, or kNoEvent.
  SimTime MinRegionTime();
  bool InboxesEmpty();
  std::uint64_t TotalExecuted() const;

  static constexpr SimTime kNoEvent =
      std::numeric_limits<SimTime>::max();
  /// Windows are also capped so trace side-logs and barrier batches stay
  /// small even when the lookahead is unbounded (single region). Window
  /// boundaries still differ across shard counts, since the width follows
  /// the lookahead. Outputs do not depend on them: every barrier merge
  /// appends in key order.
  static constexpr SimDuration kMaxWindowWidth = 64 * kMillisecond;
  static constexpr int kCoordRegionCode = 0x7F;  // EventId region field

  netsim::EventId EncodeId(int region, RegionQueue::Handle h) const;

  netsim::Simulator& sim_;
  const int requested_;
  const int threads_;
  bool installed_ = false;

  Partition part_;
  std::vector<std::unique_ptr<Region>> regions_;
  RegionQueue coord_queue_;
  SimTime now_ = 0;
  std::uint64_t coord_seq_ = 0;
  std::uint64_t coord_executed_ = 0;
  obs::TraceBuffer* base_trace_ = nullptr;

  std::vector<std::uint64_t> node_seq_;
  std::vector<std::unique_ptr<Rng>> node_rng_;
  std::uint64_t seed_base_ = 1;

  // Threaded-phase coordination (see file comment).
  std::unique_ptr<Pool> pool_;
  int worker_count_ = 1;
  bool threaded_phase_ = false;
  std::uint64_t phase_base_gen_ = 0;
  std::atomic<std::uint64_t> window_gen_{0};
  std::atomic<int> window_done_{0};
  std::atomic<bool> phase_over_{false};
  SimTime window_end_ = 0;  // published by window_gen_
};

}  // namespace cbt::exec::pdes
