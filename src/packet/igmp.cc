#include "packet/igmp.h"

#include "common/buffer.h"
#include "common/checksum.h"

namespace cbt::packet {
namespace {

constexpr std::size_t kBasicSize = 8;        // type, code, checksum, group
constexpr std::size_t kCoreReportFixed = 12;  // + version/target/count word

}  // namespace

std::size_t IgmpMessage::EncodedSize() const {
  return IsCoreReport() ? kCoreReportFixed + 4 * cores.size() : kBasicSize;
}

void IgmpMessage::EncodeTo(std::span<std::uint8_t> out) const {
  const auto raw_type = static_cast<std::uint8_t>(type);
  const auto count = static_cast<std::uint16_t>(cores.size());
  // The checksum is summed from the field values before they are stored.
  std::uint64_t sum = ((std::uint32_t{raw_type} << 8) | code) + group.bits();
  if (IsCoreReport()) {
    sum += ((std::uint32_t{version} << 8) | target_core_index) + count;
    for (const Ipv4Address& c : cores) sum += c.bits();
  }
  SpanWriter w(out.first(EncodedSize()));
  w.WriteU8(raw_type);
  w.WriteU8(code);
  w.WriteU16(ChecksumOfFieldSum(sum));
  w.WriteAddress(group);
  if (IsCoreReport()) {
    w.WriteU8(version);
    w.WriteU8(target_core_index);
    w.WriteU16(count);
    for (const Ipv4Address& c : cores) w.WriteAddress(c);
  }
}

std::vector<std::uint8_t> IgmpMessage::Encode() const {
  std::vector<std::uint8_t> out(EncodedSize());
  EncodeTo(out);
  return out;
}

std::optional<IgmpMessage> IgmpMessage::Decode(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kBasicSize) return std::nullopt;
  if (!VerifyInternetChecksum(bytes)) return std::nullopt;
  BufferReader in(bytes);
  IgmpMessage msg;
  const std::uint8_t raw_type = in.ReadU8();
  switch (static_cast<IgmpType>(raw_type)) {
    case IgmpType::kMembershipQuery:
    case IgmpType::kMembershipReport:
    case IgmpType::kLeaveGroup:
    case IgmpType::kRpCoreReport:
    case IgmpType::kJoinConfirmation:
      msg.type = static_cast<IgmpType>(raw_type);
      break;
    default:
      return std::nullopt;
  }
  msg.code = in.ReadU8();
  in.ReadU16();  // checksum, verified above
  msg.group = in.ReadAddress();
  if (msg.IsCoreReport()) {
    if (bytes.size() < kCoreReportFixed) return std::nullopt;
    msg.version = in.ReadU8();
    msg.target_core_index = in.ReadU8();
    const std::uint16_t n = in.ReadU16();
    if (n > kMaxCores || bytes.size() < kCoreReportFixed + 4u * n) {
      return std::nullopt;
    }
    if (msg.target_core_index >= n) return std::nullopt;
    for (std::uint16_t i = 0; i < n; ++i) msg.cores.push_back(in.ReadAddress());
  }
  if (!in.ok()) return std::nullopt;
  return msg;
}

}  // namespace cbt::packet
