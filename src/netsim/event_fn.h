// Small-buffer-optimized event callback.
//
// The simulator hot path schedules millions of short-lived closures
// (frame deliveries, protocol timers). std::function heap-allocates for
// anything beyond two pointers of capture; EventFn stores up to
// kInlineBytes of capture inline so the common closures (a `this`
// pointer, a couple of ids, a PacketRef) never touch the allocator.
// Move-only, like the events it carries.
//
// The event queue builds each closure once, straight in its slab slot
// (Emplace), and moves it out once, when the event runs: a relocation is
// an indirect call, and periodic soft-state timers re-arm often enough
// for extra ones to show in a profile.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cbt::netsim {

/// A closure to be built in place: `make()` returns the callable to
/// store, and EventFn constructs that prvalue straight in its storage
/// (guaranteed copy elision). A wrapper around a caller's callable (the
/// id reset of Timer::Schedule) then moves the caller's callable once,
/// into the slot, instead of once into the wrapper and again with it.
template <typename Make>
struct InPlace {
  Make make;
};
template <typename Make>
InPlace(Make) -> InPlace<Make>;

class EventFn {
  template <typename F>
  struct ClosureOf {
    using type = F;
  };
  template <typename Make>
  struct ClosureOf<InPlace<Make>> {
    using type = std::invoke_result_t<Make&>;
  };
  /// The closure type an argument of type F stores: F itself, decayed,
  /// or what an InPlace argument's `make()` returns.
  template <typename F>
  using Closure = typename ClosureOf<std::decay_t<F>>::type;

 public:
  /// Sized to fit the frame-delivery closures (this + node/vif ids + two
  /// addresses + a PacketRef; the batched one is exactly 48 bytes);
  /// larger captures fall back to one heap allocation.
  static constexpr std::size_t kInlineBytes = 48;

  /// True if a closure of type F is stored inline; any other closure
  /// costs a heap allocation per event.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, Closure<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    Build(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  /// Replaces the held closure with one built from `f` straight in this
  /// object's storage, with no intermediate EventFn. An EventFn argument
  /// is moved in.
  template <typename F>
  void Emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<void, Closure<F>&>,
                    "an event closure takes no arguments");
      Reset();
      Build(std::forward<F>(f));
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// Destroys the held closure (releasing captured resources eagerly).
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to);  // move-construct + destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* from, void* to) {
        Fn* src = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* from, void* to) {
        ::new (to) Fn*(*static_cast<Fn**>(from));
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
  };

  /// `f` itself, or the prvalue an InPlace argument makes.
  template <typename F>
  static decltype(auto) Source(F&& f) {
    if constexpr (std::is_same_v<Closure<F>, std::decay_t<F>>) {
      return std::forward<F>(f);
    } else {
      return f.make();
    }
  }

  /// Constructs the closure `f` describes into the empty buffer.
  template <typename F>
  void Build(F&& f) {
    using Fn = Closure<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(Source(std::forward<F>(f)));
      ops_ = &kInlineOps<Fn>;
    } else {
      Fn* heap = new Fn(Source(std::forward<F>(f)));
      ::new (static_cast<void*>(buf_)) Fn*(heap);
      ops_ = &kHeapOps<Fn>;
    }
  }

  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace cbt::netsim
