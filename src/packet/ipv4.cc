#include "packet/ipv4.h"

#include <cassert>

#include "common/checksum.h"

namespace cbt::packet {

// Both directions work on the fixed 20-byte layout (RFC 791, no options):
//
//   0  ver/IHL  1 tos  2-3 total_length  4-5 identification
//   6-7 flags/fragment  8 ttl  9 protocol  10-11 checksum
//   12-15 src  16-19 dst

void Ipv4Header::Encode(std::span<std::uint8_t> out,
                        std::size_t payload_size) const {
  assert(out.size() >= kIpv4HeaderSize);
  std::uint8_t* p = out.data();
  const auto total_length =
      static_cast<std::uint16_t>(kIpv4HeaderSize + payload_size);
  const auto proto = static_cast<std::uint8_t>(protocol);
  p[0] = 0x45;  // version 4, IHL 5 (no options)
  p[1] = tos;
  StoreBe16(p + 2, total_length);
  StoreBe16(p + 4, identification);
  StoreBe16(p + 6, 0);  // flags / fragment offset: fragmentation not modelled
  p[8] = ttl;
  p[9] = proto;
  StoreBe32(p + 12, src.bits());
  StoreBe32(p + 16, dst.bits());
  // Summed from the field values, not re-read from the bytes just stored.
  const std::uint64_t sum =
      (0x4500u | tos) + std::uint64_t{total_length} + identification +
      ((std::uint32_t{ttl} << 8) | proto) + src.bits() + dst.bits();
  StoreBe16(p + 10, ChecksumOfFieldSum(sum));
}

std::optional<ParsedDatagram> ParseDatagram(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kIpv4HeaderSize) return std::nullopt;
  const std::uint8_t* p = bytes.data();
  if (!VerifyInternetChecksum(bytes.first(kIpv4HeaderSize))) {
    return std::nullopt;
  }
  if (p[0] != 0x45) return std::nullopt;  // version 4, no options
  if (LoadBe16(p + 6) != 0) return std::nullopt;  // fragmentation unsupported
  const std::uint16_t total_length = LoadBe16(p + 2);
  if (total_length < kIpv4HeaderSize || total_length > bytes.size()) {
    return std::nullopt;
  }
  ParsedDatagram d;
  d.ip.tos = p[1];
  d.ip.total_length = total_length;
  d.ip.identification = LoadBe16(p + 4);
  d.ip.ttl = p[8];
  d.ip.protocol = static_cast<IpProtocol>(p[9]);
  d.ip.src = Ipv4Address(LoadBe32(p + 12));
  d.ip.dst = Ipv4Address(LoadBe32(p + 16));
  d.payload = bytes.subspan(kIpv4HeaderSize, total_length - kIpv4HeaderSize);
  return d;
}

std::vector<std::uint8_t> BuildDatagram(const Ipv4Header& header,
                                        std::span<const std::uint8_t> payload) {
  BufferWriter out(kIpv4HeaderSize + payload.size());
  header.Encode(out, payload.size());
  out.WriteBytes(payload);
  return std::move(out).Take();
}

void UdpHeader::Encode(std::span<std::uint8_t> out,
                       std::size_t payload_size) const {
  SpanWriter w(out.first(kUdpHeaderSize));
  w.WriteU16(src_port);
  w.WriteU16(dst_port);
  w.WriteU16(static_cast<std::uint16_t>(kUdpHeaderSize + payload_size));
  w.WriteU16(0);  // checksum unused; CBT payload self-checksums
}

std::optional<UdpHeader> UdpHeader::Decode(BufferReader& in) {
  UdpHeader h;
  h.src_port = in.ReadU16();
  h.dst_port = in.ReadU16();
  const std::uint16_t length = in.ReadU16();
  in.ReadU16();  // checksum (0 = unused)
  if (!in.ok() || length < kUdpHeaderSize) return std::nullopt;
  if (length - kUdpHeaderSize > in.remaining()) return std::nullopt;
  return h;
}

}  // namespace cbt::packet
