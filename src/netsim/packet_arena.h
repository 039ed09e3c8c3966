// Slab allocator for in-flight packets.
//
// Every frame transmission used to allocate a fresh
// shared_ptr<vector<uint8_t>> that lived until the last delivery ran; on
// large topologies that is one malloc + one control block per hop. The
// arena instead keeps a free list of reusable buffers: a send copies the
// datagram into a pooled buffer once and hands out cheap refcounted
// PacketRef handles (single-threaded, non-atomic counts). A buffer's
// allocation is retained when it is released, so the steady-state data
// path performs no heap allocation at all.
//
// Lifetime rule: a PacketRef must not outlive its arena. The simulator
// owns one arena and destroys it after the event queue, so closures
// holding PacketRefs always die first.
//
// Threading rule: the refcounts are non-atomic by design (one arena
// belongs to one simulation replica). Debug builds enforce this with a
// ThreadOwnershipGuard — touching an arena from a second thread aborts.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_guard.h"

namespace cbt::netsim {

class PacketArena;

/// Refcounted view of an arena buffer. Copy = incref; cheap to move.
class PacketRef {
 public:
  PacketRef() = default;
  PacketRef(const PacketRef& other);
  PacketRef& operator=(const PacketRef& other);
  PacketRef(PacketRef&& other) noexcept
      : arena_(std::exchange(other.arena_, nullptr)),
        index_(other.index_) {}
  PacketRef& operator=(PacketRef&& other) noexcept;
  ~PacketRef();

  std::span<const std::uint8_t> bytes() const;
  bool valid() const { return arena_ != nullptr; }

 private:
  friend class PacketArena;
  PacketRef(PacketArena* arena, std::uint32_t index)
      : arena_(arena), index_(index) {}

  PacketArena* arena_ = nullptr;
  std::uint32_t index_ = 0;
};

class PacketArena {
 public:
  PacketArena() = default;
  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  /// Copies `bytes` into a pooled buffer and returns a handle to it.
  PacketRef Make(std::span<const std::uint8_t> bytes);

  /// Copies an existing packet so the copy can be mutated (fault
  /// injection corrupts per-receiver copies). Returns the writable byte
  /// of the new buffer via `MutableBytes` before any further refs exist.
  PacketRef Clone(const PacketRef& ref) { return Make(ref.bytes()); }

  /// Mutable view of a buffer; only safe while the caller holds the sole
  /// reference (i.e. immediately after Make/Clone).
  std::span<std::uint8_t> MutableBytes(const PacketRef& ref);

  /// True when `ref` points into this arena and no other handle shares
  /// the buffer — the holder may then patch the bytes in place (e.g. a
  /// transit hop's TTL decrement) without any copy being observable.
  bool SoleRefHere(const PacketRef& ref) const {
    return ref.arena_ == this && buffers_[ref.index_].refs == 1;
  }

  // --- Accounting (bench + regression tests) -----------------------------
  std::size_t buffers_allocated() const { return buffers_.size(); }
  std::size_t buffers_live() const { return live_; }
  std::uint64_t total_makes() const { return total_makes_; }
  /// Makes served from the free list without allocating.
  std::uint64_t reuses() const { return reuses_; }

 private:
  friend class PacketRef;

  struct Buffer {
    std::vector<std::uint8_t> data;  // capacity retained across reuse
    std::uint32_t refs = 0;
    std::uint32_t next_free = kNil;
  };
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  void AddRef(std::uint32_t index) {
    guard_.AssertOwned("netsim::PacketArena");
    ++buffers_[index].refs;
  }
  void Release(std::uint32_t index);

  ThreadOwnershipGuard guard_;
  std::vector<Buffer> buffers_;
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
  std::uint64_t total_makes_ = 0;
  std::uint64_t reuses_ = 0;
};

inline PacketRef::PacketRef(const PacketRef& other)
    : arena_(other.arena_), index_(other.index_) {
  if (arena_ != nullptr) arena_->AddRef(index_);
}

inline PacketRef& PacketRef::operator=(const PacketRef& other) {
  if (this != &other) {
    if (other.arena_ != nullptr) other.arena_->AddRef(other.index_);
    if (arena_ != nullptr) arena_->Release(index_);
    arena_ = other.arena_;
    index_ = other.index_;
  }
  return *this;
}

inline PacketRef& PacketRef::operator=(PacketRef&& other) noexcept {
  if (this != &other) {
    if (arena_ != nullptr) arena_->Release(index_);
    arena_ = std::exchange(other.arena_, nullptr);
    index_ = other.index_;
  }
  return *this;
}

inline PacketRef::~PacketRef() {
  if (arena_ != nullptr) arena_->Release(index_);
}

inline std::span<const std::uint8_t> PacketRef::bytes() const {
  return arena_->buffers_[index_].data;
}

}  // namespace cbt::netsim
