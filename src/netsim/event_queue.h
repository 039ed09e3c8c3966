// Discrete-event scheduler core: hierarchical timer wheel of per-timestamp
// buckets + overflow heap.
//
// Events are closures ordered by (time, insertion sequence); the sequence
// tie-break makes simultaneous events run in schedule order, which keeps
// every run bit-for-bit deterministic.
//
// Design
// ------
// Events that share an exact time share a *bucket*, a FIFO list of
// events in schedule order. The wheel, the overflow heap and the due run
// hold buckets, not events, so the timers a periodic soft-state refresh
// arms for one instant on every router are cascaded, collected and
// ordered as one entry.
//
// A new event is appended to the open bucket of its time, found through a
// small direct-mapped cache of recently used times; on a miss a new bucket
// opens and takes over the cache entry. A bucket that has left the cache
// (evicted by another time, or emptied and freed) never takes another
// append. So when two buckets hold the same time, every event of the
// older one was scheduled before every event of the newer one, and
// ordering buckets by (time, creation counter) gives exactly the events'
// (time, sequence) order without a per-event sequence key.
//
// Time is cut into ticks of 2^kTickShift microseconds. A hierarchy of
// kLevels wheels with 64 slots each covers the near future: a bucket due
// `d` ticks ahead lives at the lowest level whose span contains it (level
// k spans 64^(k+1) ticks), in the slot addressed by bits [6k, 6k+6) of its
// absolute tick. Buckets beyond the top level's span go to an *indexed*
// binary min-heap (heap position stored in the bucket, so removing an
// emptied bucket is a true O(log n) removal). Events live in a slab of
// 16-byte links with their closures in a parallel array; the EventId
// encodes (slab index, generation), so Cancel unlinks the event from its
// bucket in O(1), frees the bucket once it is empty, and destroys the
// closure immediately: no tombstones accumulate. ScheduleAt and
// Reschedule are templates that build the caller's callable straight in
// its slab slot (EventFn::Emplace); the closure moves once more, out of
// the slot when the event runs.
//
// Execution drains one tick at a time: the earliest occupied slot is
// found with per-level occupancy bitmaps (O(1) per level), higher-level
// slots cascade down as the current tick advances past their span, and
// the buckets of the due tick are ordered by (time, creation counter)
// before their events run front to back.
// tests/netsim/engine_differential_test.cc checks that order against a
// test-local ordered-map reference queue; the golden digests pin it end
// to end.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
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
  EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `when`; returns a cancellation handle.
  /// `fn` is any callable EventFn accepts (an EventFn is moved in) and is
  /// built straight in the event's slab slot.
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    const std::uint32_t index = NewSlot();
    fns_[index].Emplace(std::forward<F>(fn));
    return Append(index, when);
  }

  /// Cancels a pending event; returns false if it already ran/was
  /// cancelled. Cancellation reclaims the slot and destroys the closure
  /// eagerly.
  bool Cancel(EventId id);

  /// Re-arms: exactly Cancel(id) followed by ScheduleAt(when, fn), and
  /// returns the new handle. A still-pending event keeps its slab slot:
  /// it leaves its bucket, takes the next generation and is appended to
  /// the bucket of `when`, so the order, the returned id and the slab's
  /// free list all equal what the two calls would produce. A stale or
  /// invalid `id` just schedules. Like ScheduleAt, `fn` is built in the
  /// slot, after the old closure is destroyed.
  template <typename F>
  EventId Reschedule(EventId id, SimTime when, F&& fn) {
    const std::uint32_t index = RenewSlotOf(id);
    fns_[index].Emplace(std::forward<F>(fn));
    return Append(index, when);
  }

  /// True if no runnable (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; only valid when !Empty().
  SimTime NextTime();

  /// Pops and runs the earliest event, advancing `clock` to its time.
  /// Returns false if the queue was empty.
  bool RunNext(SimTime& clock);

  /// RunNext, but only if the earliest event is due at or before `until`;
  /// returns false, running nothing, otherwise. It checks the front once
  /// per event where NextTime() followed by RunNext() checks it twice.
  bool RunNextUntil(SimTime until, SimTime& clock);

  // --- Accounting (memory-bound regression tests & benches) --------------

  /// Slots ever allocated in the event slab (bounds resident memory;
  /// reused across schedule/cancel cycles).
  std::size_t slot_capacity() const { return links_.size(); }

  /// Pending per-timestamp buckets: the entries the wheel slots, the
  /// overflow heap and the due run hold between them.
  std::size_t wheel_entries() const { return live_buckets_; }

  /// Events parked in the far-future overflow heap.
  std::size_t overflow_heap_size() const;

  /// Walks the whole structure and returns false if any invariant is
  /// broken: occupancy bits, bucket placement, the time cache, the heap
  /// and the event count. For tests; linear in the queue's size.
  bool CheckInvariants() const;

 private:
  static constexpr int kTickShift = 10;  // 1024 us per tick
  static constexpr int kLevelBits = 6;   // 64 slots per level
  static constexpr int kSlots = 1 << kLevelBits;
  static constexpr int kLevels = 4;      // horizon 64^4 ticks (~4.8 hours)
  static constexpr int kCacheBits = 6;   // 64 cached open buckets
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// An event's place in its bucket's FIFO; `bucket` is kNil while the
  /// slab slot is free, and `next` then links the free list.
  struct Link {
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::uint32_t gen = 0;
    std::uint32_t bucket = kNil;
  };

  enum State : std::uint8_t { kFree, kWheel, kHeap, kDue };

  /// All pending events of one exact time that were scheduled while the
  /// bucket was open, in schedule order.
  struct Bucket {
    SimTime when = 0;
    std::uint64_t order = 0;  // creation counter: same-time tie-break
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t next = kNil;  // slot list link / free list link
    // A bucket sits in a slot list or in the heap, never both.
    union {
      std::uint32_t prev = kNil;  // kWheel: slot list back link
      std::uint32_t heap_pos;     // kHeap: index into heap_
    };
    std::uint8_t state = kFree;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
  };

  struct Level {
    std::array<std::uint32_t, kSlots> head;
    std::uint64_t occupancy = 0;
  };

  /// A bucket of the tick being drained, with its sort key; stale once
  /// the bucket is freed (it is kFree, or reused under a new `order`).
  struct DueEntry {
    SimTime when;
    std::uint64_t order;
    std::uint32_t bucket;
    bool operator<(const DueEntry& o) const {
      return when != o.when ? when < o.when : order < o.order;
    }
  };

  static std::int64_t TickOf(SimTime when) { return when >> kTickShift; }
  DueEntry EntryOf(std::uint32_t b) const {
    return DueEntry{buckets_[b].when, buckets_[b].order, b};
  }
  static std::size_t CacheIndex(SimTime when);
  /// Level and slot the prefix rule assigns to `tick`; level kLevels
  /// means beyond the wheel (the overflow heap).
  void Place(std::int64_t tick, int& level, int& slot) const;

  std::uint32_t AllocSlot();
  /// Starts the next incarnation of slab slot `index`: bumps the
  /// generation, so ids of prior incarnations go stale.
  void RenewSlot(std::uint32_t index);
  void FreeSlot(std::uint32_t index);
  /// Index of the pending event `id` names, or kNil when it is stale.
  std::uint32_t PendingIndex(EventId id) const;
  /// Counts a new event and claims a renewed slot for it; its closure is
  /// then built in fns_[index] and the slot appended.
  std::uint32_t NewSlot();
  /// Reschedule's slot: the pending event `id` names, with its closure
  /// destroyed and the event unlinked and renewed, or else NewSlot().
  std::uint32_t RenewSlotOf(EventId id);
  /// Appends renewed slot `index`, its closure built, to the open bucket
  /// of `when`.
  EventId Append(std::uint32_t index, SimTime when);
  /// Takes a pending event out of its bucket, freeing the bucket once it
  /// is empty.
  void Unlink(std::uint32_t index);

  /// The cached open bucket of `when`, or a new one that takes over its
  /// cache entry.
  std::uint32_t OpenBucket(SimTime when);
  /// Takes an emptied bucket out of its slot list, heap or due run and
  /// out of the cache.
  void FreeBucket(std::uint32_t b);
  void InsertIntoWheel(std::uint32_t b);
  void UnlinkFromSlot(std::uint32_t b);
  void InsertDueSorted(std::uint32_t b);
  void HeapPush(std::uint32_t b);
  void HeapRemove(std::uint32_t pos);
  void HeapSiftUp(std::uint32_t pos);
  void HeapSiftDown(std::uint32_t pos);
  /// Orders heap positions `a` and `b` by their buckets' due-run keys.
  bool HeapLess(std::uint32_t a, std::uint32_t b) const;

  /// Moves the buckets of (level, slot) plus all overflow-heap buckets of
  /// tick `tick` into due_, ordered by (when, order).
  void CollectTick(std::int64_t tick, int level, int slot);

  /// Ensures due_[due_pos_] is a live bucket, cascading/refilling as
  /// needed. Returns false when the queue is empty.
  bool EnsureDueFront();
  void RefillDue();
  /// Pops and runs due_'s front event; EnsureDueFront() must hold.
  void RunFront(SimTime& clock);

  /// Slab links and generation counters are non-atomic: one queue
  /// belongs to one replica. Debug builds abort on cross-thread use
  /// (checked at the public entry points: ScheduleAt/Reschedule/Cancel/
  /// RunNext).
  ThreadOwnershipGuard guard_;
  std::size_t live_ = 0;
  std::size_t live_buckets_ = 0;
  std::uint64_t next_order_ = 0;

  std::vector<Link> links_;
  std::vector<EventFn> fns_;  // parallel to links_
  std::uint32_t free_head_ = kNil;
  std::vector<Bucket> buckets_;
  std::uint32_t free_bucket_ = kNil;
  std::array<std::uint32_t, 1 << kCacheBits> cache_;  // open bucket or kNil
  std::array<Level, kLevels> levels_;
  std::vector<std::uint32_t> heap_;  // bucket indices, indexed min-heap
  std::int64_t cur_tick_ = 0;
  std::vector<DueEntry> due_;
  std::size_t due_pos_ = 0;
};

}  // namespace cbt::netsim
