#include "packet/cbt_control.h"

#include "common/buffer.h"
#include "common/checksum.h"

namespace cbt::packet {
namespace {

bool IsValidType(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(ControlType::kJoinRequest) &&
         t <= static_cast<std::uint8_t>(ControlType::kPingReply);
}

}  // namespace

// Figure 8 layout:
//   word 0: vers(4) unused(4) | type(8) | code(8) | #cores(8)
//   word 1: hdr length(16) | checksum(16)
//   group identifier | packet origin | target core address | core #1..#N
// For echo messages (Figure 9) the #cores byte is the aggregate flag and a
// single group-id-mask word stands in for the core list.
std::size_t ControlPacket::EncodedSize() const {
  // The group-mask word replaces an echo's core list.
  return IsEcho() ? kControlFixedSize + 4 : kControlFixedSize + 4 * cores.size();
}

void ControlPacket::EncodeTo(std::span<std::uint8_t> out) const {
  const auto length = static_cast<std::uint16_t>(EncodedSize());
  const auto version_byte = static_cast<std::uint8_t>(version << 4);
  const auto raw_type = static_cast<std::uint8_t>(type);
  const std::uint8_t count_or_aggregate =
      IsEcho() ? (aggregate ? 0xFF : 0x00)
               : static_cast<std::uint8_t>(cores.size());
  // The checksum is summed from the field values before they are stored.
  std::uint64_t sum = ((std::uint32_t{version_byte} << 8) | raw_type) +
                      ((std::uint32_t{code} << 8) | count_or_aggregate) +
                      std::uint64_t{length} + group.bits() + origin.bits() +
                      target_core.bits();
  if (IsEcho()) {
    sum += group_mask;
  } else {
    for (const Ipv4Address& c : cores) sum += c.bits();
  }
  SpanWriter w(out.first(length));
  w.WriteU8(version_byte);
  w.WriteU8(raw_type);
  w.WriteU8(code);
  w.WriteU8(count_or_aggregate);
  w.WriteU16(length);
  w.WriteU16(ChecksumOfFieldSum(sum));
  w.WriteAddress(group);
  w.WriteAddress(origin);
  w.WriteAddress(target_core);
  if (IsEcho()) {
    w.WriteU32(group_mask);
  } else {
    for (const Ipv4Address& c : cores) w.WriteAddress(c);
  }
}

std::vector<std::uint8_t> ControlPacket::Encode() const {
  std::vector<std::uint8_t> out(EncodedSize());
  EncodeTo(out);
  return out;
}

std::optional<ControlPacket> ControlPacket::Decode(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kControlFixedSize) return std::nullopt;
  BufferReader peek(bytes);
  peek.Skip(4);
  const std::uint16_t length = peek.ReadU16();
  if (!peek.ok() || length < kControlFixedSize || length > bytes.size()) {
    return std::nullopt;
  }
  if (!VerifyInternetChecksum(bytes.subspan(0, length))) return std::nullopt;

  BufferReader in(bytes.subspan(0, length));
  ControlPacket pkt;
  const std::uint8_t word0 = in.ReadU8();
  pkt.version = static_cast<std::uint8_t>(word0 >> 4);
  if (pkt.version != kCbtVersion) return std::nullopt;
  const std::uint8_t raw_type = in.ReadU8();
  if (!IsValidType(raw_type)) return std::nullopt;
  pkt.type = static_cast<ControlType>(raw_type);
  pkt.code = in.ReadU8();
  const std::uint8_t count_or_aggregate = in.ReadU8();
  in.ReadU16();  // length, consumed above
  in.ReadU16();  // checksum, verified above
  pkt.group = in.ReadAddress();
  pkt.origin = in.ReadAddress();
  pkt.target_core = in.ReadAddress();

  if (pkt.IsEcho()) {
    if (count_or_aggregate != 0x00 && count_or_aggregate != 0xFF) {
      return std::nullopt;
    }
    if (length != kControlFixedSize + 4) return std::nullopt;
    pkt.aggregate = count_or_aggregate == 0xFF;
    pkt.group_mask = in.ReadU32();
  } else {
    const std::size_t n = count_or_aggregate;
    if (n > kMaxCores) return std::nullopt;
    if (length != kControlFixedSize + 4 * n) return std::nullopt;
    for (std::size_t i = 0; i < n; ++i) pkt.cores.push_back(in.ReadAddress());
  }
  if (!in.ok()) return std::nullopt;
  return pkt;
}

const char* ControlTypeName(ControlType type) {
  switch (type) {
    case ControlType::kJoinRequest: return "JOIN-REQUEST";
    case ControlType::kJoinAck: return "JOIN-ACK";
    case ControlType::kJoinNack: return "JOIN-NACK";
    case ControlType::kQuitRequest: return "QUIT-REQUEST";
    case ControlType::kQuitAck: return "QUIT-ACK";
    case ControlType::kFlushTree: return "FLUSH-TREE";
    case ControlType::kEchoRequest: return "CBT-ECHO-REQUEST";
    case ControlType::kEchoReply: return "CBT-ECHO-REPLY";
    case ControlType::kCorePing: return "CBT-CORE-PING";
    case ControlType::kPingReply: return "CBT-PING-REPLY";
  }
  return "?";
}

}  // namespace cbt::packet
