// One-shot timer handle bound to the simulator event queue.
//
// Protocol state machines hold Timers as members; destroying or
// re-scheduling a Timer cancels the previous pending event, which removes
// a whole class of fire-after-free bugs.
#pragma once

#include <utility>

#include "netsim/simulator.h"

namespace cbt::netsim {

class Timer {
 public:
  Timer() = default;
  explicit Timer(Simulator& sim) : sim_(&sim) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&& other) noexcept { *this = std::move(other); }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      Cancel();
      sim_ = other.sim_;
      id_ = std::exchange(other.id_, kInvalidEventId);
    }
    return *this;
  }

  ~Timer() { Cancel(); }

  void BindTo(Simulator& sim) { sim_ = &sim; }

  /// Cancels any pending firing and schedules `fn` after `delay`. A
  /// pending timer is re-armed through Simulator::Reschedule: its event
  /// keeps its slab slot and moves to the bucket of its new time, which
  /// orders events exactly as a cancel plus a fresh schedule would.
  /// Templated on the callable, and the id-reset wrapper is built in
  /// place in the event's slot, so `fn` is moved once into the slot and
  /// once out when it fires. It is stored inline while `fn` plus the
  /// wrapper's `this` fit EventFn::kInlineBytes.
  template <typename F>
  void Schedule(SimDuration delay, F&& fn) {
    id_ = sim_->Reschedule(id_, delay, InPlace{[&] {
      return [this, fn = std::forward<F>(fn)]() mutable {
        id_ = kInvalidEventId;  // fired; re-Schedule ok
        fn();
      };
    }});
  }

  void Cancel() {
    if (id_ != kInvalidEventId && sim_ != nullptr) {
      sim_->Cancel(id_);
      id_ = kInvalidEventId;
    }
  }

  bool IsPending() const { return id_ != kInvalidEventId; }

 private:
  Simulator* sim_ = nullptr;
  EventId id_ = kInvalidEventId;
};

}  // namespace cbt::netsim
