// Deterministic sim-time protocol tracing: a bounded ring buffer of
// structured events, exportable as Chrome trace_event JSON (loadable in
// Perfetto / chrome://tracing).
//
// Determinism contract
// --------------------
// Tracing is record-only: emitting an event writes one POD slot into a
// pre-sized ring and touches neither the RNG nor the event queue, so a
// run with tracing enabled at any level is byte-identical — in event
// order and in every bench/test output — to the same run with tracing
// off. The golden digest table pins this: a bench's `--trace` leg must
// print its untraced leg's digest.
//
// Cost contract
// -------------
// Emission is a null check, a level check and a struct store; event
// names/categories are static strings (no allocation, no formatting
// until export).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.h"

namespace cbt::obs {

/// Runtime verbosity. kSpans records protocol state-machine transitions
/// and fault spans; kVerbose adds per-packet lifecycle instants
/// (join/ack/quit/flush receptions) and routing-invalidation detail.
enum class TraceLevel : std::uint8_t { kOff = 0, kSpans = 1, kVerbose = 2 };

/// Broad event classification (the "cat" field of the Chrome export).
enum class TraceKind : std::uint8_t {
  kFsm,        // CBT group state machine: joining -> active -> rejoining
  kPacket,     // control-packet lifecycle (join/ack/quit/flush/echo)
  kChaos,      // fault injection / repair
  kRouting,    // unicast-routing invalidations
  kInvariant,  // auditor violations
  kTopology,   // netsim up/down and attach changes
  kIgmp,       // querier elections, membership edges
  kMarker,     // free-form bench/test markers
};

const char* TraceKindName(TraceKind kind);

/// Chrome trace_event phase: instants, and begin/end span brackets
/// (matched per (pid, tid=node, name) by the viewer).
enum class TracePhase : std::uint8_t { kInstant, kBegin, kEnd };

/// One trace record. POD; `name`/`detail` must be static strings (string
/// literals or other process-lifetime constants) — the ring stores the
/// pointers only.
struct TraceEvent {
  SimTime time = 0;
  TraceKind kind = TraceKind::kMarker;
  TracePhase phase = TracePhase::kInstant;
  TraceLevel level = TraceLevel::kSpans;
  const char* name = "";
  /// Emitting node (-1 when not node-scoped); the Chrome "tid".
  std::int32_t node = -1;
  /// Multicast group the event concerns (unspecified when N/A). The
  /// explicit initializer lets OBS_TRACE call sites omit it without a
  /// -Wmissing-field-initializers warning.
  Ipv4Address group{};
  /// Event-specific scalars (subnet id, epoch, counts...; see call sites).
  std::uint64_t arg_a = 0;
  std::uint64_t arg_b = 0;
  /// Correlation id threading one protocol transaction (a join attempt,
  /// a quit exchange, a chaos fault span) through its begin/end/outcome
  /// events. Routers pack (node << 32 | per-node counter); the chaos
  /// injector uses its plan index. 0 = uncorrelated.
  std::uint64_t txn = 0;
  /// Optional static detail string.
  const char* detail = nullptr;
};

/// Bounded ring of TraceEvents. When full, the oldest events are
/// overwritten (and counted in dropped()) — a chaos soak keeps the tail
/// of history leading up to whatever went wrong.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 16,
                       TraceLevel level = TraceLevel::kSpans);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  TraceLevel level() const { return level_; }

  bool enabled(TraceLevel level) const {
    return level_ != TraceLevel::kOff &&
           static_cast<std::uint8_t>(level) <=
               static_cast<std::uint8_t>(level_);
  }

  /// Records `event` (assigns its sequence number). Callers normally go
  /// through the OBS_TRACE* macros, which add the level gate.
  void Emit(const TraceEvent& event);

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t emitted() const { return next_seq_; }

  void Clear();

  /// Visits retained events oldest -> newest; fn(seq, event).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i) {
      const std::size_t idx = (start + i) % ring_.size();
      fn(first_seq_ + i, ring_[idx]);
    }
  }

  /// Chrome trace_event JSON object ({"traceEvents":[...]}); `pid` labels
  /// the process lane (benches use one pid per simulated topology). Each
  /// event's `args` carry seq, group, a, b, txn and detail; "otherData"
  /// carries the ring's overflow accounting (emitted/retained/dropped/
  /// first_seq/capacity), so a consumer can distinguish "no event" from
  /// "event evicted".
  void ExportChromeTrace(std::ostream& os, int pid = 1) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   // next write slot
  std::size_t count_ = 0;  // retained events
  std::uint64_t first_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  TraceLevel level_;
};

/// Default buffer picked up by every netsim::Simulator at construction
/// (benches set it once in main(), before building sims, so
/// multi-topology sweeps trace without threading a pointer through every
/// harness helper). Null by default: tracing off.
///
/// Resolution order: a thread-local override installed with
/// ScopedThreadTraceBuffer wins (the parallel replica executor gives
/// every replica its own ring — or null — so concurrent replicas never
/// share one); otherwise the process-wide default set with
/// SetProcessTraceBuffer.
TraceBuffer* ProcessTraceBuffer();
void SetProcessTraceBuffer(TraceBuffer* buffer);

/// RAII thread-local override of ProcessTraceBuffer(). Installing
/// nullptr is meaningful: it masks the process default, turning tracing
/// off for this thread — exactly what an untraced replica needs while a
/// traced bench main holds a process buffer. Nests; restores the
/// previous override on destruction.
class ScopedThreadTraceBuffer {
 public:
  explicit ScopedThreadTraceBuffer(TraceBuffer* buffer);
  ~ScopedThreadTraceBuffer();

  ScopedThreadTraceBuffer(const ScopedThreadTraceBuffer&) = delete;
  ScopedThreadTraceBuffer& operator=(const ScopedThreadTraceBuffer&) = delete;

 private:
  TraceBuffer* previous_;
  bool previous_installed_;
};

/// Chrome trace_event export of several buffers into one JSON object:
/// buffers[i] becomes process lane `pid` = i + 1, events in buffer order.
/// The replica executor's ordered reducer collects per-replica rings and
/// exports them here, so the combined trace is deterministic for a given
/// replica order. Null entries are skipped (their lane stays empty).
void ExportCombinedChromeTrace(std::ostream& os,
                               const std::vector<const TraceBuffer*>& buffers);

// Callsite macros: `buf` is a TraceBuffer* (may be null); the event
// expression is only evaluated when the buffer accepts the level.
#define OBS_TRACE_AT(buf, lvl, ...)                       \
  do {                                                    \
    ::cbt::obs::TraceBuffer* obs_tb_ = (buf);             \
    if (obs_tb_ != nullptr && obs_tb_->enabled(lvl)) {    \
      obs_tb_->Emit(::cbt::obs::TraceEvent{__VA_ARGS__}); \
    }                                                     \
  } while (false)

/// Span/transition-level event (TraceLevel::kSpans).
#define OBS_TRACE(buf, ...) \
  OBS_TRACE_AT(buf, ::cbt::obs::TraceLevel::kSpans, __VA_ARGS__)
/// Per-packet-level event (TraceLevel::kVerbose).
#define OBS_TRACE_VERBOSE(buf, ...) \
  OBS_TRACE_AT(buf, ::cbt::obs::TraceLevel::kVerbose, __VA_ARGS__)

}  // namespace cbt::obs
