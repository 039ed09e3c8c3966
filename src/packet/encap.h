// Datagram assembly/disassembly helpers: the encapsulations of Figures
// 2 (control over UDP), 3/6 (CBT-mode data), and plain IGMP/IP datagrams.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/small_vec.h"
#include "packet/cbt_control.h"
#include "packet/cbt_header.h"
#include "packet/igmp.h"
#include "packet/ipv4.h"

namespace cbt::packet {

/// Largest control datagram a decoder accepts: IP + UDP + the Figure 8
/// header with kMaxCores cores. It bounds IGMP datagrams too.
constexpr std::size_t kMaxControlDatagramSize =
    kIpv4HeaderSize + kUdpHeaderSize + kControlFixedSize + 4 * kMaxCores;

/// An encoded control or IGMP datagram. Its inline storage holds every
/// well-formed one, so building a frame touches no allocator; pass it to
/// Simulator::SendDatagram as a span.
using Datagram = SmallVec<std::uint8_t, kMaxControlDatagramSize>;

// --- Control (Figure 2: IP | UDP | CBT control) ---------------------------

/// Builds IP/UDP/control in one pass. Primary messages go to port 7777,
/// echo messages to 7778, chosen from the packet type.
Datagram BuildControlDatagram(Ipv4Address src, Ipv4Address dst,
                              const ControlPacket& pkt,
                              std::uint8_t ttl = kDefaultTtl);

/// Extracts a control packet from a parsed IP datagram; nullopt when the
/// datagram is not CBT control (wrong protocol/port) or fails validation.
std::optional<ControlPacket> ExtractControl(const ParsedDatagram& dgram);

// --- IGMP ------------------------------------------------------------------

/// IGMP messages are link-local: TTL 1, destination a local group. Built
/// in one pass, like BuildControlDatagram.
Datagram BuildIgmpDatagram(Ipv4Address src, Ipv4Address dst,
                           const IgmpMessage& msg);

std::optional<IgmpMessage> ExtractIgmp(const ParsedDatagram& dgram);

// --- CBT-mode data (Figures 3/6: IP | CBT hdr | original IP | data) --------

/// Encapsulates a complete original IP datagram behind a CBT header.
/// `outer_ttl` is "the length of the corresponding tunnel, or MAX_TTL"
/// (section 5).
std::vector<std::uint8_t> BuildCbtModeDatagram(
    Ipv4Address outer_src, Ipv4Address outer_dst, const CbtDataHeader& hdr,
    std::span<const std::uint8_t> original_datagram,
    std::uint8_t outer_ttl = kDefaultTtl);

struct CbtModeData {
  Ipv4Header outer;
  CbtDataHeader header;
  /// The original datagram's IP header, as ParseDatagram reads it.
  Ipv4Header inner;
  /// The untouched original IP datagram (still a valid datagram itself).
  std::span<const std::uint8_t> original_datagram;
};

std::optional<CbtModeData> ExtractCbtModeData(const ParsedDatagram& dgram);

/// Encode-once helper for per-hop CBT fan-out: serializes the constant
/// tail (CBT header + original datagram) exactly once, then Build()
/// stamps each target's 20-byte outer IP header (src, dst, checksum)
/// into a copy of the shared template. Output is byte-identical to
/// BuildCbtModeDatagram for every (src, dst) pair, but a fan-out of N
/// targets performs one CBT-header/payload serialization instead of N.
class CbtModeEncoder {
 public:
  CbtModeEncoder(const CbtDataHeader& hdr,
                 std::span<const std::uint8_t> original_datagram,
                 std::uint8_t outer_ttl = kDefaultTtl);

  std::vector<std::uint8_t> Build(Ipv4Address outer_src,
                                  Ipv4Address outer_dst) const;

 private:
  std::vector<std::uint8_t> template_;  // outer header zeroed where per-target
};

// --- Application payload -----------------------------------------------------

/// Builds a native IP multicast data datagram with an opaque payload
/// (protocol kTest), as a sending application would.
std::vector<std::uint8_t> BuildAppDatagram(Ipv4Address src, Ipv4Address group,
                                           std::span<const std::uint8_t> payload,
                                           std::uint8_t ttl = kDefaultTtl);

/// Returns a copy of `datagram` with the IP TTL decremented (checksum
/// updated by RewriteTtl); nullopt when the TTL would expire (<= 1 on
/// arrival). Like RewriteTtl, it needs a header ParseDatagram accepted.
std::optional<std::vector<std::uint8_t>> WithDecrementedTtl(
    std::span<const std::uint8_t> datagram);

/// Returns a copy of `datagram` with the IP TTL forced to `ttl` — the
/// section 5 "TTL set to one before forwarding" rule for member LANs.
/// The header must have passed ParseDatagram (see RewriteTtl).
std::vector<std::uint8_t> WithTtl(std::span<const std::uint8_t> datagram,
                                  std::uint8_t ttl);

}  // namespace cbt::packet
