// Simulated IPv4 header (RFC 791, no options) plus the IP protocol numbers
// the CBT stack uses. Every packet in the simulator is a real byte-encoded
// IPv4 datagram; routers parse and re-encode at each hop, so TTL and
// checksum behaviour is observable end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"

namespace cbt::packet {

/// IP protocol numbers. 7 is IANA-assigned to CBT; 253 (RFC 3692 range) is
/// used for example application payloads.
enum class IpProtocol : std::uint8_t {
  kIgmp = 2,
  kCbt = 7,
  kUdp = 17,
  kTest = 253,
};

constexpr std::uint8_t kDefaultTtl = 64;
constexpr std::size_t kIpv4HeaderSize = 20;

struct Ipv4Header {
  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;  // filled by Encode from payload size
  std::uint16_t identification = 0;
  std::uint8_t ttl = kDefaultTtl;
  IpProtocol protocol = IpProtocol::kTest;
  Ipv4Address src;
  Ipv4Address dst;

  /// Writes the 20-byte header (checksum computed) for a payload of
  /// `payload_size` bytes into the first kIpv4HeaderSize bytes of `out`.
  void Encode(std::span<std::uint8_t> out, std::size_t payload_size) const;
  /// Appends the header to a growable writer.
  void Encode(BufferWriter& out, std::size_t payload_size) const {
    Encode(out.Append(kIpv4HeaderSize), payload_size);
  }

  /// Parses and checksum-verifies a header; advances `in` past it.
  static std::optional<Ipv4Header> Decode(BufferReader& in);
};

/// A parsed datagram: header plus a borrowed view of the payload bytes.
struct ParsedDatagram {
  Ipv4Header ip;
  std::span<const std::uint8_t> payload;
};

/// Parses one datagram (header checksum + length validated).
std::optional<ParsedDatagram> ParseDatagram(std::span<const std::uint8_t> bytes);

/// Builds a complete datagram around `payload`.
std::vector<std::uint8_t> BuildDatagram(const Ipv4Header& header,
                                        std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// UDP (checksum optional per RFC 768; we transmit 0 = unused, the CBT
// control payload carries its own checksum).
// ---------------------------------------------------------------------------

constexpr std::uint16_t kCbtPrimaryPort = 7777;    // section 3
constexpr std::uint16_t kCbtAuxiliaryPort = 7778;  // section 3
constexpr std::size_t kUdpHeaderSize = 8;

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  /// Writes the 8-byte header into the first kUdpHeaderSize bytes of `out`.
  void Encode(std::span<std::uint8_t> out, std::size_t payload_size) const;
  void Encode(BufferWriter& out, std::size_t payload_size) const {
    Encode(out.Append(kUdpHeaderSize), payload_size);
  }
  static std::optional<UdpHeader> Decode(BufferReader& in);
};

}  // namespace cbt::packet
