#include "cbt/host.h"


namespace cbt::core {

using packet::IgmpMessage;
using packet::IgmpType;
using packet::IpProtocol;

HostAgent::HostAgent(netsim::Simulator& sim, NodeId self,
                     const GroupDirectory* directory)
    : sim_(&sim),
      self_(self),
      directory_(directory),
      address_(sim.PrimaryAddress(self)) {}

void HostAgent::JoinGroup(Ipv4Address group) {
  std::vector<Ipv4Address> cores =
      directory_ != nullptr ? directory_->CoresFor(group)
                            : std::vector<Ipv4Address>{};
  // Under a k-core partition the mapping advertisement also names which
  // core this host's LAN should target (index 0 otherwise).
  std::size_t target_index = 0;
  if (directory_ != nullptr && !sim_->node(self_).interfaces.empty()) {
    target_index = directory_->AssignedIndex(
        group, sim_->node(self_).interfaces.front().subnet);
  }
  JoinGroupWithCores(group, std::move(cores), target_index);
}

void HostAgent::JoinGroupWithCores(Ipv4Address group,
                                   std::vector<Ipv4Address> cores,
                                   std::size_t target_index) {
  auto& membership = groups_[group];
  if (membership == nullptr) membership = std::make_unique<Membership>();
  membership->cores = cores;
  membership->target_index =
      target_index < membership->cores.size() ? target_index : 0;
  membership->response_timer.BindTo(*sim_);
  // Section 2.5: "Host A generates an IGMP RP/Core-Report and an IGMP
  // group membership report when the multicast application is invoked";
  // send unsolicited twice for robustness.
  SendReports(group);
  sim_->Schedule(kSecond, [this, group] {
    if (groups_.contains(group)) SendReports(group);
  });
}

void HostAgent::LeaveGroup(Ipv4Address group) {
  if (groups_.erase(group) == 0) return;
  confirmed_.erase(group);
  // IGMPv1 hosts have no leave message (section 2.4): the router's
  // membership state simply times out.
  if (version_ == IgmpHostVersion::kV1) return;
  IgmpMessage leave;
  leave.type = IgmpType::kLeaveGroup;
  leave.group = group;
  Send(kAllRoutersGroup, leave);
}

void HostAgent::SendToGroup(Ipv4Address group,
                            std::span<const std::uint8_t> payload,
                            std::uint8_t ttl) {
  sim_->SendDatagram(self_, 0, group,
                     packet::BuildAppDatagram(address_, group, payload, ttl));
}

std::uint64_t HostAgent::ReceivedCount(Ipv4Address group) const {
  std::uint64_t n = 0;
  for (const Received& r : received_) {
    if (r.group == group) ++n;
  }
  return n;
}

void HostAgent::OnDatagram(VifIndex /*vif*/, Ipv4Address /*link_src*/,
                           Ipv4Address /*link_dst*/,
                           std::span<const std::uint8_t> datagram) {
  const auto parsed = packet::ParseDatagram(datagram);
  if (!parsed) return;
  const packet::Ipv4Header& ip = parsed->ip;

  switch (ip.protocol) {
    case IpProtocol::kIgmp: {
      if (const auto msg = packet::ExtractIgmp(*parsed)) HandleIgmp(*msg);
      return;
    }
    case IpProtocol::kCbt:
    case IpProtocol::kUdp:
      // "The IP module of end-systems ... will discard these multicasts
      // since the CBT payload type is not recognizable" (section 5); CBT
      // control is likewise router business.
      return;
    default: {
      if (!ip.dst.IsMulticast() || !groups_.contains(ip.dst)) return;
      Received r{ip.dst, ip.src, sim_->Now(), parsed->payload.size()};
      if (parsed->payload.size() >= 4) {
        const auto& p = parsed->payload;
        r.payload_head = (std::uint32_t{p[0]} << 24) |
                         (std::uint32_t{p[1]} << 16) |
                         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
      }
      received_.push_back(r);
      if (on_data) on_data(r);
      return;
    }
  }
}

void HostAgent::HandleIgmp(const IgmpMessage& msg) {
  switch (msg.type) {
    case IgmpType::kMembershipQuery: {
      const SimDuration max_delay =
          msg.code != 0 ? msg.code * (kSecond / 10) : kSecond;
      if (msg.group.IsUnspecified()) {
        for (const auto& [group, membership] : groups_) {
          ScheduleReport(group, max_delay);
        }
      } else if (groups_.contains(msg.group)) {
        ScheduleReport(msg.group, max_delay);
      }
      return;
    }
    case IgmpType::kMembershipReport: {
      // Report suppression: someone else answered for this group.
      if (const auto it = groups_.find(msg.group); it != groups_.end()) {
        it->second->response_timer.Cancel();
      }
      return;
    }
    case IgmpType::kJoinConfirmation: {
      if (groups_.contains(msg.group)) confirmed_.insert(msg.group);
      return;
    }
    default:
      return;
  }
}

void HostAgent::ScheduleReport(Ipv4Address group, SimDuration max_delay) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  Membership& membership = *it->second;
  if (membership.response_timer.IsPending()) return;
  const SimDuration delay = static_cast<SimDuration>(
      sim_->rng().NextBelow(static_cast<std::uint64_t>(max_delay) + 1));
  membership.response_timer.Schedule(delay,
                                     [this, group] { SendReports(group); });
}

void HostAgent::SendReports(Ipv4Address group) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  Membership& membership = *it->second;

  // RP/Core-Report first so the D-DR has the <core,group> mapping when the
  // membership report triggers the join (section 2.5). Only IGMPv3 hosts
  // can send it; v1/v2 hosts rely on the D-DR's external mapping
  // (section 2.4).
  if (version_ == IgmpHostVersion::kV3 && !membership.cores.empty()) {
    IgmpMessage core_report;
    core_report.type = IgmpType::kRpCoreReport;
    core_report.code = packet::kCoreReportCodeCbt;
    core_report.group = group;
    core_report.target_core_index =
        static_cast<std::uint8_t>(membership.target_index);
    core_report.cores = membership.cores;
    Send(group, core_report);
  }

  IgmpMessage report;
  report.type = IgmpType::kMembershipReport;
  report.group = group;
  Send(group, report);
}

void HostAgent::Send(Ipv4Address dst, const IgmpMessage& msg) {
  sim_->SendDatagram(self_, 0, dst,
                     packet::BuildIgmpDatagram(address_, dst, msg));
}

}  // namespace cbt::core
