// IGMP messages as CBT consumes them.
//
// The spec assumes IGMPv3 between hosts and routers, and its Appendix
// amends the IGMPv3 PIM RP-REPORT into the RP/Core-Report (Figure 10):
// the message a joining host multicasts to carry the ordered <core,group>
// list to the subnet's D-DR. We implement:
//   * classic query / report / leave (v2 wire format, enough for the
//     querier-election and member-presence machinery CBT needs);
//   * the RP/Core-Report with the "target core" index amendment.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "packet/core_list.h"

namespace cbt::packet {

enum class IgmpType : std::uint8_t {
  kMembershipQuery = 0x11,   // general (group 0.0.0.0) or group-specific
  kMembershipReport = 0x16,  // v2-style report
  kLeaveGroup = 0x17,
  kRpCoreReport = 0x63,  // appendix amendment of the IGMPv3 PIM RP-REPORT
  /// Section 2.5 (-03) proposes that after a successful join "IGMP (v3)
  /// group multicasts a notification across the subnet indicating to
  /// member hosts that the delivery tree has been joined successfully".
  /// No wire format was ever specified; we use the basic 8-byte layout.
  kJoinConfirmation = 0x64,
};

/// Code value distinguishing CBT core reports from PIM RP reports
/// (the appendix's "new code value").
constexpr std::uint8_t kCoreReportCodeCbt = 1;

struct IgmpMessage {
  IgmpType type = IgmpType::kMembershipQuery;
  std::uint8_t code = 0;  // max-response-time for queries; report kind here
  /// Group being queried/reported/left; 0.0.0.0 for a general query.
  Ipv4Address group;

  // --- RP/Core-Report extension (Figure 10 + appendix amendments) -------
  std::uint8_t version = 3;
  /// "the reserved field ... renamed the target core field, to contain the
  /// numeric value of the position of the target core in the RP/Core list".
  std::uint8_t target_core_index = 0;
  /// Ordered candidate core list; index 0 is the primary core.
  CoreList cores;

  bool IsCoreReport() const { return type == IgmpType::kRpCoreReport; }

  /// Length of the encoded message in bytes.
  std::size_t EncodedSize() const;
  /// Writes the message (checksum computed) into the first EncodedSize()
  /// bytes of `out`. BuildIgmpDatagram calls this straight behind the IP
  /// header, so a datagram is encoded in one pass.
  void EncodeTo(std::span<std::uint8_t> out) const;
  std::vector<std::uint8_t> Encode() const;
  static std::optional<IgmpMessage> Decode(std::span<const std::uint8_t> bytes);
};

}  // namespace cbt::packet
