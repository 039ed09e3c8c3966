// Simulated IPv4 header (RFC 791, no options) plus the IP protocol numbers
// the CBT stack uses. Every packet in the simulator is a real byte-encoded
// IPv4 datagram; routers parse and re-encode at each hop, so TTL and
// checksum behaviour is observable end to end.
#pragma once

#include <cassert>
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
};

/// A parsed datagram: header plus a borrowed view of the payload bytes.
struct ParsedDatagram {
  Ipv4Header ip;
  std::span<const std::uint8_t> payload;
};

/// Parses one datagram, reading the header at fixed offsets. Rejects a
/// buffer shorter than 20 bytes, a header whose checksum does not verify,
/// a first byte other than 0x45 (version 4, no options), a nonzero
/// flags/fragment word (fragmentation is not modelled), and a
/// total_length below 20 or beyond the buffer. The payload is the
/// total_length - 20 bytes after the header; link padding past
/// total_length is ignored.
std::optional<ParsedDatagram> ParseDatagram(std::span<const std::uint8_t> bytes);

/// Sets the TTL of the datagram's IPv4 header in place and updates the
/// header checksum incrementally (RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m'),
/// m the 16-bit TTL/protocol word). The header must already have passed
/// ParseDatagram: then the result is bit for bit the full recompute,
/// since both are nonzero one's complement sums (the 0x45 byte sees to
/// that) congruent modulo 0xFFFF. On an unverified header the two can
/// differ.
inline void RewriteTtl(std::span<std::uint8_t> datagram, std::uint8_t ttl) {
  assert(datagram.size() >= kIpv4HeaderSize);
  std::uint8_t* p = datagram.data();
  const std::uint16_t old_word = LoadBe16(p + 8);
  p[8] = ttl;
  const std::uint16_t new_word = LoadBe16(p + 8);
  std::uint32_t sum = static_cast<std::uint16_t>(~LoadBe16(p + 10));
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  sum = (sum & 0xFFFFu) + (sum >> 16);  // <= 0x2FFFD folds to <= 0x10000
  sum = (sum & 0xFFFFu) + (sum >> 16);
  StoreBe16(p + 10, static_cast<std::uint16_t>(~sum));
}

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
