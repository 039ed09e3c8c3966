// An IGMP end-system: joins/leaves groups, answers queries (with report
// suppression), issues the RP/Core-Report of the spec's appendix, and
// sends/receives multicast application data in traditional IP style —
// "system host changes are not required for CBT" (section 5), so this host
// knows nothing about the CBT protocol itself.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cbt/group_directory.h"
#include "netsim/simulator.h"
#include "netsim/timer.h"
#include "packet/encap.h"

namespace cbt::core {

/// Which IGMP generation the host speaks (section 2.4 backward
/// compatibility): v1 hosts send no leaves and no RP/Core-Reports, v2
/// hosts leave but cannot carry core lists, v3 is the full appendix
/// behaviour. For v1/v2 the D-DR must learn <core,group> "by means of
/// network management" — the GroupDirectory in this implementation.
enum class IgmpHostVersion { kV1 = 1, kV2 = 2, kV3 = 3 };

class HostAgent : public netsim::NetworkAgent {
 public:
  struct Received {
    Ipv4Address group;
    Ipv4Address src;
    SimTime time = 0;
    std::size_t bytes = 0;
    /// First four payload bytes, big-endian (0 when shorter): lets
    /// sequence-stamped probes check delivery continuity without
    /// retaining whole payloads.
    std::uint32_t payload_head = 0;
  };

  /// `directory` supplies <core,group> mappings for RP/Core-Reports; may
  /// be null for hosts that only join with explicit core lists.
  HostAgent(netsim::Simulator& sim, NodeId self,
            const GroupDirectory* directory = nullptr);

  void OnDatagram(VifIndex vif, Ipv4Address link_src, Ipv4Address link_dst,
                  std::span<const std::uint8_t> datagram) override;

  /// Joins using the directory's core list for the group.
  void JoinGroup(Ipv4Address group);

  /// Joins with an explicit ordered core list ("the joining host learns of
  /// the candidate cores", section 2.2). target_index selects the core the
  /// D-DR should aim its join at.
  void JoinGroupWithCores(Ipv4Address group, std::vector<Ipv4Address> cores,
                          std::size_t target_index = 0);

  /// IGMP HOST-MEMBERSHIP-LEAVE to 224.0.0.2 (section 2.7).
  void LeaveGroup(Ipv4Address group);

  /// Sends application data to the group (membership not required —
  /// non-member sending is a CBT feature under test).
  void SendToGroup(Ipv4Address group, std::span<const std::uint8_t> payload,
                   std::uint8_t ttl = packet::kDefaultTtl);

  bool IsMember(Ipv4Address group) const { return groups_.contains(group); }

  /// True once the D-DR's join-confirmation for the group has been seen
  /// (the -03 section 2.5 notification) — "the application can now send".
  bool JoinConfirmed(Ipv4Address group) const {
    return confirmed_.contains(group);
  }
  const std::vector<Received>& received() const { return received_; }
  std::uint64_t ReceivedCount(Ipv4Address group) const;

  Ipv4Address address() const { return address_; }
  NodeId id() const { return self_; }

  /// Invoked on every delivered data packet (after recording).
  std::function<void(const Received&)> on_data;

  void set_igmp_version(IgmpHostVersion version) { version_ = version; }
  IgmpHostVersion igmp_version() const { return version_; }

 private:
  struct Membership {
    packet::CoreList cores;
    std::size_t target_index = 0;
    netsim::Timer response_timer;  // pending query response (suppressible)
  };

  void HandleIgmp(const packet::IgmpMessage& msg);
  void ScheduleReport(Ipv4Address group, SimDuration max_delay);
  void SendReports(Ipv4Address group);
  void Send(Ipv4Address dst, const packet::IgmpMessage& msg);

  netsim::Simulator* sim_;
  NodeId self_;
  const GroupDirectory* directory_;
  Ipv4Address address_;
  IgmpHostVersion version_ = IgmpHostVersion::kV3;
  std::set<Ipv4Address> confirmed_;
  std::map<Ipv4Address, std::unique_ptr<Membership>> groups_;
  std::vector<Received> received_;
};

}  // namespace cbt::core
