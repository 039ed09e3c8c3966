// Discrete-event scheduler core: hierarchical timer wheel + overflow heap.
//
// Events are closures ordered by (time, insertion sequence); the sequence
// tie-break makes simultaneous events run in schedule order, which keeps
// every run bit-for-bit deterministic.
//
// Engine design (Engine::kTimerWheel, the default)
// ------------------------------------------------
// Time is bucketed into ticks of 2^kTickShift microseconds. A hierarchy
// of kLevels wheels with 64 slots each covers the near future: an event
// due `d` ticks ahead lives at the lowest level whose span contains it
// (level k spans 64^(k+1) ticks), in the slot addressed by bits
// [6k, 6k+6) of its absolute tick. Schedule and cancel are O(1): events
// live in a slab with an intrusive doubly-linked list per slot, and the
// EventId encodes (slab index, generation) so Cancel unlinks and frees
// the slot — and destroys the closure — immediately. No tombstones
// accumulate (the former lazy-cancel heap kept dead entries and their
// captures alive until popped). Events beyond the top level's span go to
// an *indexed* binary min-heap (heap position stored in the slab entry,
// so cancellation is a true O(log n) removal).
//
// Execution drains one tick at a time: the earliest occupied slot is
// found with per-level occupancy bitmaps (O(1) per level), higher-level
// slots cascade down as the current tick advances past their span, and
// the events of the due tick are sorted by (time, sequence) before
// running — restoring the exact global order a single heap would give,
// which is what keeps wheel runs byte-identical to the legacy engine.
//
// Engine::kLegacyHeap preserves the original priority_queue +
// tombstone-set implementation. It is a test-only shim: the differential
// tests and the event-engine benchmark run both engines on identical
// workloads to prove ordering parity and measure the speedup.
#pragma once

#include <array>
#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/thread_guard.h"
#include "common/types.h"
#include "netsim/event_fn.h"

namespace cbt::netsim {

/// Handle for cancelling a scheduled event (e.g. a protocol timer that was
/// answered before it fired). Opaque; 0 is never a valid handle.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  enum class Engine {
    kTimerWheel,  // production engine
    kLegacyHeap,  // pre-rebuild engine, kept for differential tests/bench
  };

  explicit EventQueue(Engine engine = Engine::kTimerWheel);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `when`; returns a cancellation handle.
  EventId ScheduleAt(SimTime when, EventFn fn);

  /// Cancels a pending event; returns false if it already ran/was
  /// cancelled. Cancellation reclaims the slot and destroys the closure
  /// eagerly (wheel engine).
  bool Cancel(EventId id);

  /// Re-arms: exactly Cancel(id) followed by ScheduleAt(when, fn), and
  /// returns the new handle. The wheel engine moves a still-pending event
  /// in place — same slab slot, next generation, a fresh sequence number —
  /// so the new (time, sequence) key, the returned id and the slab's free
  /// list all equal what the two calls would produce. A wheel event pushed
  /// to a later tick is not even relinked: it stays parked in its slot
  /// until that slot drains. A stale or invalid `id` just schedules.
  EventId Reschedule(EventId id, SimTime when, EventFn fn);

  /// True if no runnable (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; only valid when !Empty().
  SimTime NextTime();

  /// Pops and runs the earliest event, advancing `clock` to its time.
  /// Returns false if the queue was empty.
  bool RunNext(SimTime& clock);

  Engine engine() const { return engine_; }

  // --- Accounting (memory-bound regression tests & benches) --------------

  /// Wheel engine: slots ever allocated in the event slab (bounds resident
  /// memory; reused across schedule/cancel cycles). Legacy engine: heap
  /// entries including cancelled tombstones.
  std::size_t slot_capacity() const;

  /// Events parked in the far-future overflow heap (wheel engine).
  std::size_t overflow_heap_size() const { return heap_.size(); }

 private:
  // --- Wheel engine ------------------------------------------------------

  static constexpr int kTickShift = 10;  // 1024 us per tick
  static constexpr int kLevelBits = 6;   // 64 slots per level
  static constexpr int kSlots = 1 << kLevelBits;
  static constexpr int kLevels = 4;      // horizon 64^4 ticks (~4.8 hours)
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  enum State : std::uint8_t { kFree, kWheel, kHeap, kDue };

  /// The bookkeeping every queue operation touches fills the first 32
  /// bytes; the closure, needed only to schedule and to run, follows.
  struct Event {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    std::uint32_t next = kNil;  // slot list link / free list link
    // An event sits in a slot list or in the heap, never both.
    union {
      std::uint32_t prev = kNil;  // kWheel: slot list back link
      std::uint32_t heap_pos;     // kHeap: index into heap_
    };
    std::uint8_t state = kFree;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
    EventFn fn;
  };

  struct Level {
    std::array<std::uint32_t, kSlots> head;
    std::uint64_t occupancy = 0;
  };

  struct DueEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t index;
  };

  static std::int64_t TickOf(SimTime when) { return when >> kTickShift; }

  std::uint32_t AllocSlot();
  /// Starts a new incarnation of slab slot `index`: bumps the generation
  /// (so ids of prior incarnations go stale) and clears the links.
  void RenewSlot(std::uint32_t index);
  static void BumpGeneration(Event& ev);
  void FreeSlot(std::uint32_t index);
  /// Index of the pending event `id` names, or kNil when it is stale.
  std::uint32_t PendingIndex(EventId id) const;
  /// Takes a pending event out of its slot list, heap or due run.
  void Detach(std::uint32_t index);
  /// Stamps (when, fn, next sequence) on a renewed slot and queues it.
  EventId Enqueue(std::uint32_t index, SimTime when, EventFn&& fn);
  void InsertIntoWheel(std::uint32_t index);
  void UnlinkFromSlot(std::uint32_t index);
  void InsertDueSorted(std::uint32_t index);
  void HeapPush(std::uint32_t index);
  void HeapRemove(std::uint32_t pos);
  void HeapSiftUp(std::uint32_t pos);
  void HeapSiftDown(std::uint32_t pos);
  bool HeapLess(std::uint32_t a, std::uint32_t b) const;

  /// Moves the contents of (level, slot) plus all overflow-heap events of
  /// tick `tick` into due_, sorted by (when, seq).
  void CollectTick(std::int64_t tick, int level, int slot);

  /// Ensures due_[due_pos_] is a live event, cascading/refilling as
  /// needed. Returns false when the queue is empty.
  bool EnsureDueFront();
  void RefillDue();

  /// Slab links and generation counters are non-atomic: one queue
  /// belongs to one replica. Debug builds abort on cross-thread use
  /// (checked at the public entry points: ScheduleAt/Cancel/RunNext).
  ThreadOwnershipGuard guard_;
  Engine engine_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;

  std::vector<Event> events_;
  std::uint32_t free_head_ = kNil;
  std::array<Level, kLevels> levels_;
  std::vector<std::uint32_t> heap_;  // slab indices, indexed min-heap
  std::int64_t cur_tick_ = 0;
  std::vector<DueEntry> due_;
  std::size_t due_pos_ = 0;

  // --- Legacy engine (test-only shim) ------------------------------------

  struct LegacyEntry {
    SimTime when;
    EventId id;
    mutable EventFn fn;  // moved out at pop time

    // min-heap by (when, id): std::priority_queue is a max-heap, so invert.
    bool operator<(const LegacyEntry& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  void LegacyDropCancelledHead();

  std::priority_queue<LegacyEntry> legacy_heap_;
  std::unordered_set<EventId> legacy_pending_;
  EventId legacy_next_id_ = 1;
};

}  // namespace cbt::netsim
