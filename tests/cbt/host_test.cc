// Host-side IGMP behaviour: unsolicited reports, query responses with
// suppression, leaves, and data send/receive filtering.
#include <gtest/gtest.h>

#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 3, 2, 1);

/// A bare LAN with one router and several hosts; the router agent records
/// the IGMP messages it receives.
class HostFixture : public ::testing::Test {
 protected:
  HostFixture() {
    router_node = sim.AddNode("r", true);
    topo.routers.push_back(router_node);
    topo.nodes["r"] = router_node;
    lan = sim.AddSubnet(
        "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 70, 0, 0), 16));
    topo.subnets["lan"] = lan;
    sim.Attach(router_node, lan);
    domain.emplace(sim, topo);
    domain->RegisterGroup(kGroup, {router_node});
    domain->Start();
    sim.RunUntil(kSecond);
  }

  Simulator sim{1};
  Topology topo;
  NodeId router_node;
  SubnetId lan;
  std::optional<CbtDomain> domain;
};

TEST_F(HostFixture, JoinSendsCoreReportBeforeMembershipReport) {
  auto& h = domain->AddHost(lan, "h");
  h.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  // The D-DR learned the mapping and joined (it is the core here, so it
  // roots the tree instantly).
  EXPECT_TRUE(domain->router(router_node).IsOnTree(kGroup));
  EXPECT_TRUE(h.IsMember(kGroup));
}

TEST_F(HostFixture, ReportSuppressionLimitsResponders) {
  // Many members; on each general query at most a couple of reports
  // should hit the wire thanks to suppression.
  for (int i = 0; i < 8; ++i) {
    domain->AddHost(lan, netsim::Numbered("h", i)).JoinGroup(kGroup);
  }
  sim.RunUntil(10 * kSecond);
  sim.ResetCounters();
  // Run across exactly one general-query cycle (60s interval).
  sim.RunUntil(sim.Now() + 70 * kSecond);
  // Frames on the LAN: 1-2 queries + suppressed responses + router echoes
  // etc. The key claim: nowhere near 8 reports per query.
  EXPECT_LT(sim.subnet(lan).counters.frames_sent, 14u);
}

TEST_F(HostFixture, LeaveGroupIsIdempotent) {
  auto& h = domain->AddHost(lan, "h");
  h.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 2 * kSecond);
  h.LeaveGroup(kGroup);
  h.LeaveGroup(kGroup);  // second leave: no crash, no extra message
  EXPECT_FALSE(h.IsMember(kGroup));
}

TEST_F(HostFixture, NonMemberDoesNotRecordData) {
  auto& member = domain->AddHost(lan, "member");
  auto& lurker = domain->AddHost(lan, "lurker");
  member.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 5 * kSecond);

  auto& sender = domain->AddHost(lan, "sender");
  sender.SendToGroup(kGroup, std::vector<std::uint8_t>{1, 2});
  sim.RunUntil(sim.Now() + 2 * kSecond);
  EXPECT_EQ(member.ReceivedCount(kGroup), 1u);
  EXPECT_EQ(lurker.ReceivedCount(kGroup), 0u);
  EXPECT_EQ(sender.ReceivedCount(kGroup), 0u);  // no self-delivery
}

TEST_F(HostFixture, OnDataCallbackCarriesMetadata) {
  auto& member = domain->AddHost(lan, "member");
  member.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 2 * kSecond);

  int called = 0;
  member.on_data = [&](const HostAgent::Received& r) {
    EXPECT_EQ(r.group, kGroup);
    EXPECT_EQ(r.bytes, 3u);
    EXPECT_EQ(r.time, sim.Now());
    ++called;
  };
  auto& sender = domain->AddHost(lan, "sender");
  sender.SendToGroup(kGroup, std::vector<std::uint8_t>{1, 2, 3});
  sim.RunUntil(sim.Now() + 2 * kSecond);
  EXPECT_EQ(called, 1);
}

TEST_F(HostFixture, MembershipPersistsAcrossManyQueryCycles) {
  auto& h = domain->AddHost(lan, "h");
  h.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 10 * 60 * kSecond);  // ten query cycles
  EXPECT_TRUE(domain->router(router_node).igmp().AnyMembers(kGroup));
}

TEST_F(HostFixture, LegacyV2HostJoinsViaDirectoryMapping) {
  // Section 2.4: an IGMPv2 host cannot issue RP/Core-Reports; the D-DR
  // must glean the mapping "by some other means" — the directory.
  auto& h = domain->AddHost(lan, "legacy");
  h.set_igmp_version(IgmpHostVersion::kV2);
  h.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_TRUE(domain->router(router_node).IsOnTree(kGroup));
}

TEST_F(HostFixture, LegacyV1HostLeavesByTimeoutOnly) {
  auto& h = domain->AddHost(lan, "v1");
  h.set_igmp_version(IgmpHostVersion::kV1);
  h.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  ASSERT_TRUE(domain->router(router_node).igmp().AnyMembers(kGroup));

  const SimTime left = sim.Now();
  h.LeaveGroup(kGroup);
  // No leave message: presence persists past the fast-leave window...
  sim.RunUntil(left + 30 * kSecond);
  EXPECT_TRUE(domain->router(router_node).igmp().AnyMembers(kGroup));
  // ...and ages out after the full membership timeout (2*60+10 s).
  sim.RunUntil(left + 200 * kSecond);
  EXPECT_FALSE(domain->router(router_node).igmp().AnyMembers(kGroup));
}

TEST_F(HostFixture, HostIgnoresCbtControlAndEncapsulatedTraffic) {
  auto& h = domain->AddHost(lan, "h");
  h.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 2 * kSecond);

  // Inject a CBT-mode multicast (protocol 7) addressed to the group: the
  // host's IP module must discard it (section 5).
  const auto inner = packet::BuildAppDatagram(
      Ipv4Address(10, 70, 0, 99), kGroup, std::vector<std::uint8_t>{1});
  packet::CbtDataHeader hdr;
  hdr.group = kGroup;
  hdr.ip_ttl = 8;
  hdr.on_tree = true;
  const NodeId injector = sim.AddNode("inj", false);
  sim.Attach(injector, lan);
  sim.SendDatagram(injector, 0, kGroup,
                   packet::BuildCbtModeDatagram(Ipv4Address(10, 70, 0, 99),
                                                kGroup, hdr, inner));
  sim.RunUntil(sim.Now() + 2 * kSecond);
  EXPECT_EQ(h.ReceivedCount(kGroup), 0u);
}

}  // namespace
}  // namespace cbt::core
