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

bool DueLess(const SimTime when_a, const std::uint64_t seq_a,
             const SimTime when_b, const std::uint64_t seq_b) {
  if (when_a != when_b) return when_a < when_b;
  return seq_a < seq_b;
}

}  // namespace

EventQueue::EventQueue(Engine engine) : engine_(engine) {
  for (Level& level : levels_) level.head.fill(kNil);
}

std::uint32_t EventQueue::AllocSlot() {
  std::uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = events_[index].next;
  } else {
    index = static_cast<std::uint32_t>(events_.size());
    events_.emplace_back();
  }
  RenewSlot(index);
  return index;
}

void EventQueue::RenewSlot(std::uint32_t index) {
  Event& ev = events_[index];
  BumpGeneration(ev);
  ev.next = ev.prev = kNil;
}

void EventQueue::BumpGeneration(Event& ev) {
  ++ev.gen;                    // ids of prior incarnations become stale
  if (ev.gen == 0) ++ev.gen;   // wrap: keep MakeId(0, gen) != kInvalidEventId
}

void EventQueue::FreeSlot(std::uint32_t index) {
  Event& ev = events_[index];
  ev.fn.Reset();  // release captured resources now, not when popped
  ev.state = kFree;
  ev.next = free_head_;
  free_head_ = index;
}

EventId EventQueue::ScheduleAt(SimTime when, EventFn fn) {
  guard_.AssertOwned("netsim::EventQueue");
  ++live_;
  if (engine_ == Engine::kLegacyHeap) {
    const EventId id = legacy_next_id_++;
    legacy_heap_.push(LegacyEntry{when, id, std::move(fn)});
    legacy_pending_.insert(id);
    return id;
  }
  return Enqueue(AllocSlot(), when, std::move(fn));
}

EventId EventQueue::Reschedule(EventId id, SimTime when, EventFn fn) {
  guard_.AssertOwned("netsim::EventQueue");
  if (engine_ == Engine::kLegacyHeap) {
    Cancel(id);
    return ScheduleAt(when, std::move(fn));
  }
  const std::uint32_t index = PendingIndex(id);
  if (index == kNil) return ScheduleAt(when, std::move(fn));  // nothing to cancel
  // Cancel would free the slot onto the free-list head and ScheduleAt
  // would pop it straight back; skip the round trip.
  Event& ev = events_[index];
  ev.fn.Reset();  // the old closure dies first, as in Cancel
  if (ev.state == kWheel && TickOf(when) > cur_tick_ &&
      TickOf(when) >= TickOf(ev.when)) {
    // Pushed back in time (a soft-state refresh): the event may stay in
    // its slot, which is reached no later than the new time. Only its key
    // changes; CollectTick or the cascade re-places it when the slot is
    // drained, so the order is still exactly (time, sequence).
    BumpGeneration(ev);
    ev.when = when;
    ev.seq = ++next_seq_;
    ev.fn = std::move(fn);
    return MakeId(index, ev.gen);
  }
  // A due-run entry keeps its old sequence number and is skipped at pop
  // time, exactly like a cancelled one.
  Detach(index);
  RenewSlot(index);
  return Enqueue(index, when, std::move(fn));
}

EventId EventQueue::Enqueue(std::uint32_t index, SimTime when, EventFn&& fn) {
  assert(when >= 0 && "wheel engine models nonnegative sim time");
  Event& ev = events_[index];
  ev.when = when;
  ev.seq = ++next_seq_;
  ev.fn = std::move(fn);
  if (TickOf(when) <= cur_tick_) {
    // Lands in the tick currently being drained (e.g. an event scheduling
    // a same-time follow-up): merge into the sorted due run directly.
    InsertDueSorted(index);
  } else {
    InsertIntoWheel(index);
  }
  return MakeId(index, ev.gen);
}

void EventQueue::InsertIntoWheel(std::uint32_t index) {
  Event& ev = events_[index];
  const std::int64_t tick = TickOf(ev.when);
  for (int k = 0; k < kLevels; ++k) {
    const int span_shift = kLevelBits * (k + 1);
    if ((tick >> span_shift) != (cur_tick_ >> span_shift)) continue;
    const int slot =
        static_cast<int>((tick >> (kLevelBits * k)) & (kSlots - 1));
    Level& level = levels_[k];
    ev.state = kWheel;
    ev.level = static_cast<std::uint8_t>(k);
    ev.slot = static_cast<std::uint8_t>(slot);
    ev.prev = kNil;
    ev.next = level.head[slot];
    if (ev.next != kNil) events_[ev.next].prev = index;
    level.head[slot] = index;
    level.occupancy |= std::uint64_t{1} << slot;
    return;
  }
  // Beyond the top level's span: far-future overflow heap.
  ev.state = kHeap;
  HeapPush(index);
}

void EventQueue::UnlinkFromSlot(std::uint32_t index) {
  Event& ev = events_[index];
  Level& level = levels_[ev.level];
  if (ev.prev != kNil) {
    events_[ev.prev].next = ev.next;
  } else {
    level.head[ev.slot] = ev.next;
  }
  if (ev.next != kNil) events_[ev.next].prev = ev.prev;
  if (level.head[ev.slot] == kNil) {
    level.occupancy &= ~(std::uint64_t{1} << ev.slot);
  }
}

void EventQueue::InsertDueSorted(std::uint32_t index) {
  Event& ev = events_[index];
  ev.state = kDue;
  const DueEntry entry{ev.when, ev.seq, index};
  const auto it = std::upper_bound(
      due_.begin() + static_cast<std::ptrdiff_t>(due_pos_), due_.end(), entry,
      [](const DueEntry& a, const DueEntry& b) {
        return DueLess(a.when, a.seq, b.when, b.seq);
      });
  due_.insert(it, entry);
}

bool EventQueue::HeapLess(std::uint32_t a, std::uint32_t b) const {
  const Event& ea = events_[a];
  const Event& eb = events_[b];
  return DueLess(ea.when, ea.seq, eb.when, eb.seq);
}

void EventQueue::HeapPush(std::uint32_t index) {
  events_[index].heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(index);
  HeapSiftUp(static_cast<std::uint32_t>(heap_.size() - 1));
}

void EventQueue::HeapSiftUp(std::uint32_t pos) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!HeapLess(heap_[pos], heap_[parent])) break;
    std::swap(heap_[pos], heap_[parent]);
    events_[heap_[pos]].heap_pos = pos;
    events_[heap_[parent]].heap_pos = parent;
    pos = parent;
  }
}

void EventQueue::HeapSiftDown(std::uint32_t pos) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t smallest = pos;
    const std::uint32_t left = 2 * pos + 1;
    const std::uint32_t right = 2 * pos + 2;
    if (left < n && HeapLess(heap_[left], heap_[smallest])) smallest = left;
    if (right < n && HeapLess(heap_[right], heap_[smallest])) smallest = right;
    if (smallest == pos) break;
    std::swap(heap_[pos], heap_[smallest]);
    events_[heap_[pos]].heap_pos = pos;
    events_[heap_[smallest]].heap_pos = smallest;
    pos = smallest;
  }
}

void EventQueue::HeapRemove(std::uint32_t pos) {
  const auto last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (pos != last) {
    heap_[pos] = heap_[last];
    events_[heap_[pos]].heap_pos = pos;
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
  if (id == kInvalidEventId || index >= events_.size()) return kNil;
  const Event& ev = events_[index];
  if (ev.state == kFree || ev.gen != gen) return kNil;
  return index;
}

void EventQueue::Detach(std::uint32_t index) {
  Event& ev = events_[index];
  switch (ev.state) {
    case kWheel:
      UnlinkFromSlot(index);
      break;
    case kHeap:
      HeapRemove(ev.heap_pos);
      break;
    case kDue:
      // The DueEntry keeps its (when, seq) key and is skipped at pop time
      // (bounded by the current tick's backlog, not the whole queue).
      break;
    default:
      break;
  }
}

bool EventQueue::Cancel(EventId id) {
  guard_.AssertOwned("netsim::EventQueue");
  if (engine_ == Engine::kLegacyHeap) {
    // The heap entry stays behind and is skipped lazily when it surfaces
    // (the known tombstone leak the wheel engine fixes).
    if (legacy_pending_.erase(id) == 0) return false;
    --live_;
    return true;
  }
  const std::uint32_t index = PendingIndex(id);
  if (index == kNil) return false;
  Detach(index);
  FreeSlot(index);
  --live_;
  return true;
}

void EventQueue::CollectTick(std::int64_t tick, int level, int slot) {
  cur_tick_ = tick;
  const auto begin = static_cast<std::ptrdiff_t>(due_.size());
  if (level >= 0) {
    Level& lv = levels_[level];
    std::uint32_t node = lv.head[slot];
    lv.head[slot] = kNil;
    lv.occupancy &= ~(std::uint64_t{1} << slot);
    while (node != kNil) {
      Event& ev = events_[node];
      const std::uint32_t next = ev.next;
      if (TickOf(ev.when) != tick) {
        InsertIntoWheel(node);  // re-armed to a later tick while parked here
      } else {
        ev.state = kDue;
        due_.push_back(DueEntry{ev.when, ev.seq, node});
      }
      node = next;
    }
    // Events scheduled straight into a slot are pushed at its head, so
    // reversing the run restores their schedule order and hands the sort
    // nearly sorted input.
    std::reverse(due_.begin() + begin, due_.end());
  }
  // Far-future events whose time has come share the tick with the wheel's.
  while (!heap_.empty() && TickOf(events_[heap_.front()].when) == tick) {
    const std::uint32_t index = heap_.front();
    HeapRemove(0);
    Event& ev = events_[index];
    ev.state = kDue;
    ev.heap_pos = kNil;
    due_.push_back(DueEntry{ev.when, ev.seq, index});
  }
  // Restore the exact (time, sequence) order a global heap would give.
  std::sort(due_.begin() + begin, due_.end(),
            [](const DueEntry& a, const DueEntry& b) {
              return DueLess(a.when, a.seq, b.when, b.seq);
            });
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
        have_heap ? TickOf(events_[heap_.front()].when) : 0;
    if (level < 0) {
      assert(have_heap && "RefillDue requires pending events");
      CollectTick(heap_tick, -1, -1);
      return;
    }
    // All level-k events share cur_tick_'s high bits above the level span
    // (cascade invariant) and no event sits in a slot later than its own
    // tick (a re-arm to a later tick may leave it parked earlier), so the
    // lowest occupied level and slot bound every pending event below.
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
    // and redistribute its events into lower levels.
    cur_tick_ = base;
    Level& lv = levels_[level];
    std::uint32_t node = lv.head[slot];
    lv.head[slot] = kNil;
    lv.occupancy &= ~(std::uint64_t{1} << slot);
    while (node != kNil) {
      const std::uint32_t next = events_[node].next;
      InsertIntoWheel(node);
      node = next;
    }
  }
}

bool EventQueue::EnsureDueFront() {
  for (;;) {
    while (due_pos_ < due_.size()) {
      const DueEntry& e = due_[due_pos_];
      const Event& ev = events_[e.index];
      if (ev.state == kDue && ev.seq == e.seq) return true;
      ++due_pos_;  // cancelled entry; its slot was already reclaimed
    }
    due_.clear();
    due_pos_ = 0;
    if (live_ == 0) return false;
    RefillDue();
  }
}

void EventQueue::LegacyDropCancelledHead() {
  while (!legacy_heap_.empty() &&
         !legacy_pending_.contains(legacy_heap_.top().id)) {
    legacy_heap_.pop();
  }
}

SimTime EventQueue::NextTime() {
  if (engine_ == Engine::kLegacyHeap) {
    LegacyDropCancelledHead();
    assert(!legacy_heap_.empty());
    return legacy_heap_.top().when;
  }
  const bool have = EnsureDueFront();
  assert(have && "NextTime requires a pending event");
  (void)have;
  return due_[due_pos_].when;
}

bool EventQueue::RunNext(SimTime& clock) {
  guard_.AssertOwned("netsim::EventQueue");
  if (engine_ == Engine::kLegacyHeap) {
    LegacyDropCancelledHead();
    if (legacy_heap_.empty()) return false;
    const LegacyEntry& top = legacy_heap_.top();
    EventFn fn = std::move(top.fn);  // fn is mutable; about to be popped
    const SimTime when = top.when;
    const EventId id = top.id;
    legacy_heap_.pop();
    legacy_pending_.erase(id);
    --live_;
    assert(when >= clock && "events must not be scheduled in the past");
    clock = when;
    fn();
    return true;
  }
  if (!EnsureDueFront()) return false;
  const DueEntry entry = due_[due_pos_++];
  EventFn fn = std::move(events_[entry.index].fn);
  FreeSlot(entry.index);
  --live_;
  assert(entry.when >= clock && "events must not be scheduled in the past");
  clock = entry.when;
  fn();
  return true;
}

std::size_t EventQueue::slot_capacity() const {
  return engine_ == Engine::kLegacyHeap ? legacy_heap_.size()
                                        : events_.size();
}

}  // namespace cbt::netsim
