#include "netsim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace cbt::netsim {
namespace {

constexpr EventId MakeId(std::uint32_t index, std::uint32_t gen) {
  return (static_cast<EventId>(index) << 32) | gen;
}

}  // namespace

EventQueue::EventQueue() {
  cache_.fill(kNil);
  for (Level& level : levels_) level.head.fill(kNil);
}

std::size_t EventQueue::CacheIndex(SimTime when) {
  // Fibonacci hashing: periodic timers fire on round times (whole
  // seconds), which the low bits alone would all send to one entry.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(when) * 0x9E3779B97F4A7C15ull) >>
      (64 - kCacheBits));
}

void EventQueue::Place(std::int64_t tick, int& level, int& slot) const {
  for (int k = 0; k < kLevels; ++k) {
    const int span_shift = kLevelBits * (k + 1);
    if ((tick >> span_shift) != (cur_tick_ >> span_shift)) continue;
    level = k;
    slot = static_cast<int>((tick >> (kLevelBits * k)) & (kSlots - 1));
    return;
  }
  level = kLevels;
  slot = 0;
}

std::uint32_t EventQueue::AllocSlot() {
  std::uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = links_[index].next;
  } else {
    index = static_cast<std::uint32_t>(links_.size());
    links_.emplace_back();
    fns_.emplace_back();
  }
  RenewSlot(index);
  return index;
}

void EventQueue::RenewSlot(std::uint32_t index) {
  Link& link = links_[index];
  ++link.gen;                     // ids of prior incarnations become stale
  if (link.gen == 0) ++link.gen;  // wrap: MakeId(0, gen) != kInvalidEventId
}

void EventQueue::FreeSlot(std::uint32_t index) {
  fns_[index].Reset();  // release captured resources now, not when popped
  Link& link = links_[index];
  link.bucket = kNil;
  link.next = free_head_;
  free_head_ = index;
}

std::uint32_t EventQueue::NewSlot() {
  guard_.AssertOwned("netsim::EventQueue");
  ++live_;
  return AllocSlot();
}

std::uint32_t EventQueue::RenewSlotOf(EventId id) {
  guard_.AssertOwned("netsim::EventQueue");
  const std::uint32_t index = PendingIndex(id);
  if (index == kNil) return NewSlot();  // nothing to cancel
  // Cancel would free the slot onto the free-list head and ScheduleAt
  // would pop it straight back; skip the round trip.
  fns_[index].Reset();  // the old closure dies first, as in Cancel
  Unlink(index);
  RenewSlot(index);
  return index;
}

EventId EventQueue::Append(std::uint32_t index, SimTime when) {
  assert(when >= 0 && "the wheel models nonnegative sim time");
  const std::uint32_t b = OpenBucket(when);
  Bucket& bucket = buckets_[b];
  Link& link = links_[index];
  link.bucket = b;
  link.next = kNil;
  link.prev = bucket.tail;
  if (bucket.tail != kNil) {
    links_[bucket.tail].next = index;
  } else {
    bucket.head = index;
  }
  bucket.tail = index;
  return MakeId(index, link.gen);
}

void EventQueue::Unlink(std::uint32_t index) {
  const Link& link = links_[index];
  Bucket& bucket = buckets_[link.bucket];
  if (link.prev != kNil) {
    links_[link.prev].next = link.next;
  } else {
    bucket.head = link.next;
  }
  if (link.next != kNil) {
    links_[link.next].prev = link.prev;
  } else {
    bucket.tail = link.prev;
  }
  if (bucket.head == kNil) FreeBucket(link.bucket);
}

std::uint32_t EventQueue::OpenBucket(SimTime when) {
  std::uint32_t& cached = cache_[CacheIndex(when)];
  if (cached != kNil && buckets_[cached].when == when) return cached;
  // A miss closes the entry's previous bucket for good: it takes no more
  // appends, so every event of a later bucket of the same time was
  // scheduled after all of its events.
  std::uint32_t b;
  if (free_bucket_ != kNil) {
    b = free_bucket_;
    free_bucket_ = buckets_[b].next;
  } else {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  Bucket& bucket = buckets_[b];
  bucket.when = when;
  bucket.order = ++next_order_;
  bucket.head = bucket.tail = kNil;
  ++live_buckets_;
  cached = b;
  if (TickOf(when) <= cur_tick_) {
    // Lands in the tick currently being drained (e.g. an event scheduling
    // a follow-up): merge into the ordered due run directly.
    InsertDueSorted(b);
  } else {
    InsertIntoWheel(b);
  }
  return b;
}

void EventQueue::FreeBucket(std::uint32_t b) {
  Bucket& bucket = buckets_[b];
  switch (bucket.state) {
    case kWheel:
      UnlinkFromSlot(b);
      break;
    case kHeap:
      HeapRemove(bucket.heap_pos);
      break;
    default:
      // kDue: its DueEntry goes stale and is skipped at pop time.
      break;
  }
  std::uint32_t& cached = cache_[CacheIndex(bucket.when)];
  if (cached == b) cached = kNil;
  bucket.state = kFree;
  bucket.next = free_bucket_;
  free_bucket_ = b;
  --live_buckets_;
}

void EventQueue::InsertIntoWheel(std::uint32_t b) {
  Bucket& bucket = buckets_[b];
  int k;
  int slot;
  Place(TickOf(bucket.when), k, slot);
  if (k == kLevels) {
    // Beyond the top level's span: far-future overflow heap.
    bucket.state = kHeap;
    HeapPush(b);
    return;
  }
  Level& level = levels_[k];
  bucket.state = kWheel;
  bucket.level = static_cast<std::uint8_t>(k);
  bucket.slot = static_cast<std::uint8_t>(slot);
  bucket.prev = kNil;
  bucket.next = level.head[slot];
  if (bucket.next != kNil) buckets_[bucket.next].prev = b;
  level.head[slot] = b;
  level.occupancy |= std::uint64_t{1} << slot;
}

void EventQueue::UnlinkFromSlot(std::uint32_t b) {
  Bucket& bucket = buckets_[b];
  Level& level = levels_[bucket.level];
  if (bucket.prev != kNil) {
    buckets_[bucket.prev].next = bucket.next;
  } else {
    level.head[bucket.slot] = bucket.next;
  }
  if (bucket.next != kNil) buckets_[bucket.next].prev = bucket.prev;
  if (level.head[bucket.slot] == kNil) {
    level.occupancy &= ~(std::uint64_t{1} << bucket.slot);
  }
}

void EventQueue::InsertDueSorted(std::uint32_t b) {
  buckets_[b].state = kDue;
  const DueEntry entry = EntryOf(b);
  due_.insert(std::upper_bound(
                  due_.begin() + static_cast<std::ptrdiff_t>(due_pos_),
                  due_.end(), entry),
              entry);
}

bool EventQueue::HeapLess(std::uint32_t a, std::uint32_t b) const {
  return EntryOf(heap_[a]) < EntryOf(heap_[b]);
}

void EventQueue::HeapPush(std::uint32_t b) {
  buckets_[b].heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(b);
  HeapSiftUp(static_cast<std::uint32_t>(heap_.size() - 1));
}

void EventQueue::HeapSiftUp(std::uint32_t pos) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!HeapLess(pos, parent)) break;
    std::swap(heap_[pos], heap_[parent]);
    buckets_[heap_[pos]].heap_pos = pos;
    buckets_[heap_[parent]].heap_pos = parent;
    pos = parent;
  }
}

void EventQueue::HeapSiftDown(std::uint32_t pos) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t smallest = pos;
    const std::uint32_t left = 2 * pos + 1;
    const std::uint32_t right = 2 * pos + 2;
    if (left < n && HeapLess(left, smallest)) smallest = left;
    if (right < n && HeapLess(right, smallest)) smallest = right;
    if (smallest == pos) break;
    std::swap(heap_[pos], heap_[smallest]);
    buckets_[heap_[pos]].heap_pos = pos;
    buckets_[heap_[smallest]].heap_pos = smallest;
    pos = smallest;
  }
}

void EventQueue::HeapRemove(std::uint32_t pos) {
  const auto last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (pos != last) {
    heap_[pos] = heap_[last];
    buckets_[heap_[pos]].heap_pos = pos;
    heap_.pop_back();
    HeapSiftUp(pos);
    HeapSiftDown(pos);
  } else {
    heap_.pop_back();
  }
}

std::uint32_t EventQueue::PendingIndex(EventId id) const {
  const auto index = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (id == kInvalidEventId || index >= links_.size()) return kNil;
  const Link& link = links_[index];
  if (link.bucket == kNil || link.gen != gen) return kNil;
  return index;
}

bool EventQueue::Cancel(EventId id) {
  guard_.AssertOwned("netsim::EventQueue");
  const std::uint32_t index = PendingIndex(id);
  if (index == kNil) return false;
  Unlink(index);
  FreeSlot(index);
  --live_;
  return true;
}

void EventQueue::CollectTick(std::int64_t tick, int level, int slot) {
  assert(due_.empty());
  cur_tick_ = tick;
  if (level >= 0) {
    Level& lv = levels_[level];
    std::uint32_t b = lv.head[slot];
    lv.head[slot] = kNil;
    lv.occupancy &= ~(std::uint64_t{1} << slot);
    while (b != kNil) {
      assert(TickOf(buckets_[b].when) == tick);
      buckets_[b].state = kDue;
      due_.push_back(EntryOf(b));
      b = buckets_[b].next;
    }
  }
  // Far-future buckets whose time has come share the tick with the wheel's.
  while (!heap_.empty() && TickOf(buckets_[heap_.front()].when) == tick) {
    const std::uint32_t b = heap_.front();
    HeapRemove(0);
    buckets_[b].state = kDue;
    due_.push_back(EntryOf(b));
  }
  // The tick's distinct times, and same-time buckets split by a cache
  // eviction, run in (time, creation) order: the events' (time, sequence).
  std::sort(due_.begin(), due_.end());
}

void EventQueue::RefillDue() {
  for (;;) {
    int level = -1;
    for (int k = 0; k < kLevels; ++k) {
      if (levels_[k].occupancy != 0) {
        level = k;
        break;
      }
    }
    const bool have_heap = !heap_.empty();
    const std::int64_t heap_tick =
        have_heap ? TickOf(buckets_[heap_.front()].when) : 0;
    if (level < 0) {
      assert(have_heap && "RefillDue requires pending events");
      CollectTick(heap_tick, -1, -1);
      return;
    }
    // All level-k buckets share cur_tick_'s high bits above the level span
    // (cascade invariant) and each sits in the slot of its own tick, so
    // the lowest occupied level and slot bound every pending bucket below.
    const int slot = std::countr_zero(levels_[level].occupancy);
    const int low_shift = kLevelBits * level;
    const int span_shift = kLevelBits * (level + 1);
    const std::int64_t base =
        ((cur_tick_ >> span_shift) << span_shift) |
        (static_cast<std::int64_t>(slot) << low_shift);
    if (have_heap && heap_tick < base) {
      CollectTick(heap_tick, -1, -1);
      return;
    }
    if (level == 0) {
      CollectTick(base, 0, slot);
      return;
    }
    // Cascade: advance to the slot's span (nothing pending is earlier)
    // and redistribute its buckets into lower levels.
    cur_tick_ = base;
    Level& lv = levels_[level];
    std::uint32_t b = lv.head[slot];
    lv.head[slot] = kNil;
    lv.occupancy &= ~(std::uint64_t{1} << slot);
    while (b != kNil) {
      const std::uint32_t next = buckets_[b].next;
      InsertIntoWheel(b);
      b = next;
    }
  }
}

bool EventQueue::EnsureDueFront() {
  for (;;) {
    while (due_pos_ < due_.size()) {
      const DueEntry& e = due_[due_pos_];
      const Bucket& bucket = buckets_[e.bucket];
      if (bucket.state == kDue && bucket.order == e.order) return true;
      ++due_pos_;  // bucket emptied (run or cancelled) and freed
    }
    due_.clear();
    due_pos_ = 0;
    if (live_ == 0) return false;
    RefillDue();
  }
}

SimTime EventQueue::NextTime() {
  const bool have = EnsureDueFront();
  assert(have && "NextTime requires a pending event");
  (void)have;
  return due_[due_pos_].when;
}

bool EventQueue::RunNext(SimTime& clock) {
  guard_.AssertOwned("netsim::EventQueue");
  if (!EnsureDueFront()) return false;
  RunFront(clock);
  return true;
}

bool EventQueue::RunNextUntil(SimTime until, SimTime& clock) {
  guard_.AssertOwned("netsim::EventQueue");
  if (!EnsureDueFront() || due_[due_pos_].when > until) return false;
  RunFront(clock);
  return true;
}

void EventQueue::RunFront(SimTime& clock) {
  const SimTime when = due_[due_pos_].when;
  const std::uint32_t index = buckets_[due_[due_pos_].bucket].head;
  EventFn fn = std::move(fns_[index]);
  Unlink(index);
  FreeSlot(index);
  --live_;
  assert(when >= clock && "events must not be scheduled in the past");
  clock = when;
  fn();
}

std::size_t EventQueue::overflow_heap_size() const {
  std::size_t events = 0;
  for (const std::uint32_t b : heap_) {
    for (std::uint32_t i = buckets_[b].head; i != kNil; i = links_[i].next) {
      ++events;
    }
  }
  return events;
}

bool EventQueue::CheckInvariants() const {
  std::size_t events = 0;
  std::size_t buckets = 0;
  // A live bucket is non-empty, and its FIFO links back to it both ways.
  const auto walk = [&](std::uint32_t b) {
    const Bucket& bucket = buckets_[b];
    std::uint32_t prev = kNil;
    for (std::uint32_t i = bucket.head; i != kNil; i = links_[i].next) {
      if (links_[i].bucket != b || links_[i].prev != prev) return false;
      prev = i;
      ++events;
    }
    ++buckets;
    return bucket.head != kNil && bucket.tail == prev;
  };
  // Occupancy bits match non-empty slots, and every wheel bucket sits in
  // the slot of its own tick at the prefix-rule level.
  for (int k = 0; k < kLevels; ++k) {
    const Level& lv = levels_[k];
    for (int s = 0; s < kSlots; ++s) {
      const bool occupied = ((lv.occupancy >> s) & 1) != 0;
      if (occupied != (lv.head[s] != kNil)) return false;
      std::uint32_t prev = kNil;
      for (std::uint32_t b = lv.head[s]; b != kNil; b = buckets_[b].next) {
        const Bucket& bucket = buckets_[b];
        int level;
        int slot;
        Place(TickOf(bucket.when), level, slot);
        if (bucket.state != kWheel || bucket.prev != prev ||
            bucket.level != k || bucket.slot != s || level != k ||
            slot != s || TickOf(bucket.when) <= cur_tick_ || !walk(b)) {
          return false;
        }
        prev = b;
      }
    }
  }
  // The overflow heap: positions, heap order, all after the current tick.
  for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
    const Bucket& bucket = buckets_[heap_[pos]];
    if (bucket.state != kHeap || bucket.heap_pos != pos ||
        TickOf(bucket.when) <= cur_tick_ ||
        (pos > 0 && HeapLess(pos, (pos - 1) / 2)) ||
        !walk(heap_[pos])) {
      return false;
    }
  }
  // The due run: ordered keys (stale entries keep theirs), live entries
  // within the current tick.
  for (std::size_t pos = due_pos_; pos < due_.size(); ++pos) {
    const DueEntry& e = due_[pos];
    if (pos > due_pos_ && e < due_[pos - 1]) return false;
    const Bucket& bucket = buckets_[e.bucket];
    if (bucket.state != kDue || bucket.order != e.order) continue;  // stale
    if (bucket.when != e.when || TickOf(e.when) > cur_tick_ ||
        !walk(e.bucket)) {
      return false;
    }
  }
  // Every cached bucket is live and holds the time it is cached under.
  for (std::size_t h = 0; h < cache_.size(); ++h) {
    const std::uint32_t b = cache_[h];
    if (b == kNil) continue;
    if (b >= buckets_.size() || buckets_[b].state == kFree ||
        CacheIndex(buckets_[b].when) != h) {
      return false;
    }
  }
  return events == live_ && buckets == live_buckets_;
}

}  // namespace cbt::netsim
