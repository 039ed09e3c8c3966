// A small-buffer vector for trivially-copyable element types.
//
// The forwarding path iterates tiny per-group collections (child entries,
// target vif lists) on every data packet; a std::vector there means a heap
// allocation per packet. SmallVec keeps the first N elements inline and
// only touches the heap when a collection outgrows that — which for CBT
// fan-outs (typically 1-4 children per vif) is the rare case.
//
// Deliberately minimal: contiguous storage, vector-compatible iteration
// and erase, no exception guarantees beyond what trivial copies give.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <utility>

namespace cbt {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec relies on memcpy-able elements");
  static_assert(N > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  SmallVec(std::initializer_list<T> values) { *this = values; }

  SmallVec& operator=(std::initializer_list<T> values) {
    assign(values.begin(), values.size());
    return *this;
  }
  /// Copies from any contiguous source (a std::vector, a span); `values`
  /// must not alias this vector's storage.
  SmallVec& operator=(std::span<const T> values) {
    assign(values.data(), values.size());
    return *this;
  }

  SmallVec(const SmallVec& other) { *this = other; }
  SmallVec& operator=(const SmallVec& other) {
    if (this == &other) return *this;
    assign(other.data(), other.size_);
    return *this;
  }

  SmallVec(SmallVec&& other) noexcept { *this = std::move(other); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this == &other) return *this;
    delete[] heap_;
    heap_ = nullptr;
    // Not adopting a heap block means we are back on the inline buffer, so
    // the capacity must drop to N even when the source is empty.
    capacity_ = N;
    size_ = other.size_;
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
    } else if (size_ > 0) {
      std::memcpy(inline_, other.inline_, size_ * sizeof(T));
    }
    other.size_ = 0;
    other.capacity_ = N;
    return *this;
  }

  ~SmallVec() { delete[] heap_; }

  T* data() { return heap_ != nullptr ? heap_ : InlineData(); }
  const T* data() const {
    return heap_ != nullptr ? heap_ : InlineData();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  /// True while the elements still live in the inline buffer.
  bool inlined() const { return heap_ == nullptr; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      // `value` may alias our own storage; copy it out before Grow frees it.
      const T copy = value;
      Grow(capacity_ * 2);
      data()[size_++] = copy;
      return;
    }
    data()[size_++] = value;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    push_back(T{std::forward<Args>(args)...});
    return back();
  }

  void pop_back() { --size_; }
  void clear() { size_ = 0; }

  iterator erase(iterator pos) { return erase(pos, pos + 1); }
  iterator erase(iterator first, iterator last) {
    const auto tail = static_cast<std::size_t>(end() - last);
    if (tail > 0) std::memmove(first, last, tail * sizeof(T));
    size_ -= static_cast<std::size_t>(last - first);
    return first;
  }

  void assign(const T* src, std::size_t count) {
    if (count > capacity_) Grow(count);
    if (count > 0) std::memcpy(data(), src, count * sizeof(T));
    size_ = count;
  }

  void assign(std::size_t count, const T& value) {
    const T copy = value;  // `value` may alias our own storage
    if (count > capacity_) Grow(count);
    std::fill_n(data(), count, copy);
    size_ = count;
  }

  /// Grows with value-initialized elements or truncates to `count`.
  void resize(std::size_t count) {
    if (count > capacity_) Grow(count);
    if (count > size_) std::fill(data() + size_, data() + count, T{});
    size_ = count;
  }

  void reserve(std::size_t count) {
    if (count > capacity_) Grow(count);
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(inline_); }
  const T* InlineData() const { return reinterpret_cast<const T*>(inline_); }

  void Grow(std::size_t at_least) {
    const std::size_t cap = std::max(at_least, capacity_ * 2);
    T* bigger = new T[cap];
    if (size_ > 0) std::memcpy(bigger, data(), size_ * sizeof(T));
    delete[] heap_;
    heap_ = bigger;
    capacity_ = cap;
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace cbt
