// CBT control packets, spec sections 8.2-8.4 (Figures 8 and 9).
//
// Control messages travel inside UDP (Figure 2): primary maintenance
// messages (join/ack/nack, quit/ack, flush) on port 7777, auxiliary
// messages (echo request/reply) on port 7778.
//
// One codec covers both encodings:
//  * the standard control header (Figure 8) with the ordered core list —
//    "JOIN-REQUESTs carry the identity of all cores for the group";
//  * the echo encoding (Figure 9), where the "# cores" byte becomes the
//    "aggregate" flag and the core-list words are replaced by a group-id
//    mask for aggregated keepalives.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"
#include "packet/cbt_header.h"
#include "packet/core_list.h"

namespace cbt::packet {

/// Section 8.3/8.4 message types.
enum class ControlType : std::uint8_t {
  kJoinRequest = 1,
  kJoinAck = 2,
  kJoinNack = 3,
  kQuitRequest = 4,
  kQuitAck = 5,
  kFlushTree = 6,
  kEchoRequest = 7,
  kEchoReply = 8,
  // The -02 draft's core-reachability probe, retained here because the
  // -03 rejoin machinery needs it to avoid tearing down a subtree while
  // chasing an unreachable primary core ("The purpose of this message is
  // to establish core reachability before sending a JOIN-REQUEST").
  kCorePing = 9,
  kPingReply = 10,
};

/// JOIN-REQUEST subcodes (section 8.3.1).
enum class JoinSubcode : std::uint8_t {
  kActiveJoin = 0,     // sender has no children for the group
  kRejoinActive = 1,   // sender has at least one child
  kRejoinNactive = 2,  // loop-detection form, converted on-tree
};

/// JOIN-ACK subcodes (section 8.3.1).
enum class AckSubcode : std::uint8_t {
  kNormal = 0,
  kProxyAck = 1,       // last-hop LAN ack; receiver cancels state (2.6)
  kRejoinNactive = 2,  // primary core acks a NACTIVE rejoin directly
};

/// Fixed part of the Figure-8 header: word0, len+checksum, group, origin,
/// target core.
constexpr std::size_t kControlFixedSize = 20;

struct ControlPacket {
  std::uint8_t version = kCbtVersion;
  ControlType type = ControlType::kJoinRequest;
  std::uint8_t code = 0;  // subcode, meaning depends on type
  Ipv4Address group;
  /// Originating end-system/router of the request this packet belongs to.
  /// Crucially NOT rewritten when a REJOIN-ACTIVE is converted to
  /// REJOIN-NACTIVE (section 6.3 loop detection).
  Ipv4Address origin;
  /// "desired/actual core affiliation"; the REJOIN-NACTIVE conversion
  /// overwrites this with the converting router's address (section 8.3.1).
  Ipv4Address target_core;
  /// Ordered core list; cores[0] is the primary core.
  CoreList cores;

  // Echo-only fields (Figure 9).
  bool aggregate = false;
  std::uint32_t group_mask = 0;

  JoinSubcode join_subcode() const { return static_cast<JoinSubcode>(code); }
  AckSubcode ack_subcode() const { return static_cast<AckSubcode>(code); }

  bool IsEcho() const {
    return type == ControlType::kEchoRequest ||
           type == ControlType::kEchoReply;
  }

  /// Length of the encoded packet in bytes (the Figure 8 "hdr length").
  std::size_t EncodedSize() const;
  /// Writes the packet (checksum computed) into the first EncodedSize()
  /// bytes of `out`; BuildControlDatagram places it behind IP and UDP in
  /// the same buffer.
  void EncodeTo(std::span<std::uint8_t> out) const;
  std::vector<std::uint8_t> Encode() const;
  static std::optional<ControlPacket> Decode(std::span<const std::uint8_t> bytes);
};

const char* ControlTypeName(ControlType type);

}  // namespace cbt::packet
