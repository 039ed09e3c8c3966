// Debug-build cross-thread ownership guard.
//
// The hot-path simulation structures (netsim::PacketArena refcounts,
// netsim::EventQueue slabs) are deliberately non-atomic: one simulation
// replica is single-threaded, and the parallel replica executor
// (src/exec/) runs *whole replicas* on worker threads, never sharing one
// replica's structures across threads. That contract is invisible to the
// type system, so debug builds enforce it dynamically: the guard binds
// to the first thread that touches the guarded object and aborts — with
// a message naming the object — if any other thread touches it later.
//
// Release builds (NDEBUG) compile the guard away entirely; the guarded
// hot paths pay nothing.
#pragma once

#ifndef NDEBUG
#include <atomic>
#include <thread>
#endif

namespace cbt {

#ifndef NDEBUG

class ThreadOwnershipGuard {
 public:
  /// Checks (and on first use, binds) the calling thread. `what` names
  /// the guarded object in the abort message.
  void AssertOwned(const char* what) const {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;  // first touch binds ownership
    }
    if (expected != self) Die(what);
  }

 private:
  [[noreturn]] static void Die(const char* what);

  mutable std::atomic<std::thread::id> owner_{};
};

#else  // NDEBUG

class ThreadOwnershipGuard {
 public:
  void AssertOwned(const char*) const {}
};

#endif  // NDEBUG

}  // namespace cbt
