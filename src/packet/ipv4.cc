#include "packet/ipv4.h"

#include "common/checksum.h"

namespace cbt::packet {

void Ipv4Header::Encode(std::span<std::uint8_t> out,
                        std::size_t payload_size) const {
  SpanWriter w(out.first(kIpv4HeaderSize));
  w.WriteU8(0x45);  // version 4, IHL 5 (no options)
  w.WriteU8(tos);
  w.WriteU16(static_cast<std::uint16_t>(kIpv4HeaderSize + payload_size));
  w.WriteU16(identification);
  w.WriteU16(0);  // flags / fragment offset: fragmentation not modelled
  w.WriteU8(ttl);
  w.WriteU8(static_cast<std::uint8_t>(protocol));
  const std::size_t checksum_offset = w.size();
  w.WriteU16(0);
  w.WriteAddress(src);
  w.WriteAddress(dst);
  w.PatchU16(checksum_offset, InternetChecksum(w.View()));
}

std::optional<Ipv4Header> Ipv4Header::Decode(BufferReader& in) {
  if (in.remaining() < kIpv4HeaderSize) return std::nullopt;
  // Verify checksum over the raw header bytes before consuming fields.
  // position() is the current offset into the original span; rebuild a view.
  Ipv4Header h;
  const std::uint8_t ver_ihl = in.ReadU8();
  if ((ver_ihl >> 4) != 4 || (ver_ihl & 0x0F) != 5) return std::nullopt;
  h.tos = in.ReadU8();
  h.total_length = in.ReadU16();
  h.identification = in.ReadU16();
  const std::uint16_t flags_frag = in.ReadU16();
  if (flags_frag != 0) return std::nullopt;  // fragmentation unsupported
  h.ttl = in.ReadU8();
  h.protocol = static_cast<IpProtocol>(in.ReadU8());
  in.ReadU16();  // checksum validated at ParseDatagram level
  h.src = in.ReadAddress();
  h.dst = in.ReadAddress();
  if (!in.ok()) return std::nullopt;
  return h;
}

std::optional<ParsedDatagram> ParseDatagram(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kIpv4HeaderSize) return std::nullopt;
  if (!VerifyInternetChecksum(bytes.subspan(0, kIpv4HeaderSize))) {
    return std::nullopt;
  }
  BufferReader reader(bytes);
  auto header = Ipv4Header::Decode(reader);
  if (!header) return std::nullopt;
  if (header->total_length < kIpv4HeaderSize ||
      header->total_length > bytes.size()) {
    return std::nullopt;
  }
  return ParsedDatagram{
      *header, bytes.subspan(kIpv4HeaderSize,
                             header->total_length - kIpv4HeaderSize)};
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
