// Byte-order-aware serialization buffers.
//
// All CBT wire formats (section 8) are big-endian. BufferWriter appends
// network-order fields to a growable byte vector; SpanWriter fills a
// buffer the caller has already sized (the one-pass datagram encoders);
// BufferReader consumes them with explicit bounds checking — a truncated
// or corrupt packet turns into a failed read, never undefined behaviour.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace cbt {

/// Big-endian loads and stores at a caller-checked offset, for the
/// fixed-layout codecs (ParseDatagram, Ipv4Header::Encode) and the
/// bounds-checked reader and writers below. Byte accesses only, so any
/// alignment is fine; compilers merge them into one load or store plus a
/// byte swap.
inline std::uint16_t LoadBe16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]);
}

inline std::uint32_t LoadBe32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void StoreBe16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

inline void StoreBe32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// Append-only big-endian serializer.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  void WriteU8(std::uint8_t v) { bytes_.push_back(v); }

  void WriteU16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  void WriteU32(std::uint32_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> 24));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 16));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  void WriteAddress(Ipv4Address a) { WriteU32(a.bits()); }

  void WriteBytes(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  /// Overwrites a previously written 16-bit field (checksum back-patching).
  void PatchU16(std::size_t offset, std::uint16_t v) {
    bytes_.at(offset) = static_cast<std::uint8_t>(v >> 8);
    bytes_.at(offset + 1) = static_cast<std::uint8_t>(v);
  }

  /// Appends `n` zero bytes and returns them for a fixed-size encoder
  /// (e.g. Ipv4Header::Encode) to fill in place.
  std::span<std::uint8_t> Append(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return std::span<std::uint8_t>(bytes_).subspan(at, n);
  }

  std::size_t size() const { return bytes_.size(); }
  std::span<const std::uint8_t> View() const { return bytes_; }
  std::vector<std::uint8_t> Take() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Big-endian serializer into a caller-sized span. The caller computes
/// the encoded length first, so no write can outgrow the buffer (debug
/// builds assert it) and nothing is allocated.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) : out_(out) {}

  void WriteU8(std::uint8_t v) {
    assert(pos_ < out_.size());
    out_[pos_++] = v;
  }

  void WriteU16(std::uint16_t v) {
    WriteU8(static_cast<std::uint8_t>(v >> 8));
    WriteU8(static_cast<std::uint8_t>(v));
  }

  void WriteU32(std::uint32_t v) {
    WriteU16(static_cast<std::uint16_t>(v >> 16));
    WriteU16(static_cast<std::uint16_t>(v));
  }

  void WriteAddress(Ipv4Address a) { WriteU32(a.bits()); }

 private:
  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Bounds-checked big-endian deserializer over a borrowed byte span.
///
/// Reads never throw: a short buffer sets the error flag and subsequent
/// reads return zero. Callers check ok() once after parsing a structure.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t ReadU8() {
    if (!Require(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t ReadU16() {
    if (!Require(2)) return 0;
    const std::uint16_t v = LoadBe16(data_.data() + pos_);
    pos_ += 2;
    return v;
  }

  std::uint32_t ReadU32() {
    if (!Require(4)) return 0;
    const std::uint32_t v = LoadBe32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  Ipv4Address ReadAddress() { return Ipv4Address(ReadU32()); }

  /// Returns a view of the next n bytes (empty + error on underrun).
  std::span<const std::uint8_t> ReadBytes(std::size_t n) {
    if (!Require(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void Skip(std::size_t n) {
    if (Require(n)) pos_ += n;
  }

  std::size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool ok() const { return !failed_; }

 private:
  bool Require(std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace cbt
