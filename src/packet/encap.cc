#include "packet/encap.h"

#include "common/checksum.h"

namespace cbt::packet {

Datagram BuildControlDatagram(Ipv4Address src, Ipv4Address dst,
                              const ControlPacket& pkt, std::uint8_t ttl) {
  const bool auxiliary = pkt.IsEcho() ||
                         pkt.type == ControlType::kCorePing ||
                         pkt.type == ControlType::kPingReply;
  const std::uint16_t port = auxiliary ? kCbtAuxiliaryPort : kCbtPrimaryPort;
  const std::size_t control_size = pkt.EncodedSize();

  Datagram out;
  out.resize(kIpv4HeaderSize + kUdpHeaderSize + control_size);
  const std::span<std::uint8_t> bytes(out.data(), out.size());
  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.ttl = ttl;
  ip.protocol = IpProtocol::kUdp;
  ip.Encode(bytes, kUdpHeaderSize + control_size);
  UdpHeader udp{port, port};
  udp.Encode(bytes.subspan(kIpv4HeaderSize), control_size);
  pkt.EncodeTo(bytes.subspan(kIpv4HeaderSize + kUdpHeaderSize));
  return out;
}

std::optional<ControlPacket> ExtractControl(const ParsedDatagram& dgram) {
  if (dgram.ip.protocol != IpProtocol::kUdp) return std::nullopt;
  BufferReader in(dgram.payload);
  const auto udp = UdpHeader::Decode(in);
  if (!udp) return std::nullopt;
  if (udp->dst_port != kCbtPrimaryPort && udp->dst_port != kCbtAuxiliaryPort) {
    return std::nullopt;
  }
  return ControlPacket::Decode(dgram.payload.subspan(kUdpHeaderSize));
}

Datagram BuildIgmpDatagram(Ipv4Address src, Ipv4Address dst,
                           const IgmpMessage& msg) {
  const std::size_t body_size = msg.EncodedSize();
  Datagram out;
  out.resize(kIpv4HeaderSize + body_size);
  const std::span<std::uint8_t> bytes(out.data(), out.size());
  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.ttl = 1;  // IGMP never leaves the subnet
  ip.protocol = IpProtocol::kIgmp;
  ip.Encode(bytes, body_size);
  msg.EncodeTo(bytes.subspan(kIpv4HeaderSize));
  return out;
}

std::optional<IgmpMessage> ExtractIgmp(const ParsedDatagram& dgram) {
  if (dgram.ip.protocol != IpProtocol::kIgmp) return std::nullopt;
  return IgmpMessage::Decode(dgram.payload);
}

std::vector<std::uint8_t> BuildCbtModeDatagram(
    Ipv4Address outer_src, Ipv4Address outer_dst, const CbtDataHeader& hdr,
    std::span<const std::uint8_t> original_datagram, std::uint8_t outer_ttl) {
  BufferWriter out(kIpv4HeaderSize + kCbtDataHeaderSize +
                   original_datagram.size());
  Ipv4Header ip;
  ip.src = outer_src;
  ip.dst = outer_dst;
  ip.ttl = outer_ttl;
  ip.protocol = IpProtocol::kCbt;
  ip.Encode(out, kCbtDataHeaderSize + original_datagram.size());
  hdr.Encode(out);
  out.WriteBytes(original_datagram);
  return std::move(out).Take();
}

CbtModeEncoder::CbtModeEncoder(const CbtDataHeader& hdr,
                               std::span<const std::uint8_t> original_datagram,
                               std::uint8_t outer_ttl)
    : template_(BuildCbtModeDatagram(Ipv4Address{}, Ipv4Address{}, hdr,
                                     original_datagram, outer_ttl)) {}

std::vector<std::uint8_t> CbtModeEncoder::Build(Ipv4Address outer_src,
                                                Ipv4Address outer_dst) const {
  std::vector<std::uint8_t> out = template_;
  StoreBe32(out.data() + 12, outer_src.bits());
  StoreBe32(out.data() + 16, outer_dst.bits());
  StoreBe16(out.data() + 10, 0);
  StoreBe16(out.data() + 10, InternetChecksum(std::span<const std::uint8_t>(
                                 out.data(), kIpv4HeaderSize)));
  return out;
}

std::optional<CbtModeData> ExtractCbtModeData(const ParsedDatagram& dgram) {
  if (dgram.ip.protocol != IpProtocol::kCbt) return std::nullopt;
  BufferReader in(dgram.payload);
  const auto hdr = CbtDataHeader::Decode(in);
  if (!hdr) return std::nullopt;
  const auto inner = dgram.payload.subspan(kCbtDataHeaderSize);
  // The inner payload must itself be a well-formed IP datagram.
  const auto parsed_inner = ParseDatagram(inner);
  if (!parsed_inner) return std::nullopt;
  return CbtModeData{dgram.ip, *hdr, parsed_inner->ip, inner};
}

std::vector<std::uint8_t> BuildAppDatagram(Ipv4Address src, Ipv4Address group,
                                           std::span<const std::uint8_t> payload,
                                           std::uint8_t ttl) {
  BufferWriter out(kIpv4HeaderSize + payload.size());
  Ipv4Header ip;
  ip.src = src;
  ip.dst = group;
  ip.ttl = ttl;
  ip.protocol = IpProtocol::kTest;
  ip.Encode(out, payload.size());
  out.WriteBytes(payload);
  return std::move(out).Take();
}

std::optional<std::vector<std::uint8_t>> WithDecrementedTtl(
    std::span<const std::uint8_t> datagram) {
  if (datagram.size() < kIpv4HeaderSize) return std::nullopt;
  const std::uint8_t ttl = datagram[8];
  if (ttl <= 1) return std::nullopt;
  return WithTtl(datagram, static_cast<std::uint8_t>(ttl - 1));
}

std::vector<std::uint8_t> WithTtl(std::span<const std::uint8_t> datagram,
                                  std::uint8_t ttl) {
  std::vector<std::uint8_t> out(datagram.begin(), datagram.end());
  RewriteTtl(out, ttl);
  return out;
}

}  // namespace cbt::packet
