// Tree-joining walkthroughs from spec sections 2.5 and 2.6, replayed on
// the Figure-1 topology.
#include <gtest/gtest.h>

#include "cbt/domain.h"
#include "cbt/tree_printer.h"
#include "netsim/topologies.h"

#include <sstream>

namespace cbt::core {
namespace {

using netsim::MakeFigure1;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 1, 2, 3);

class JoinFixture : public ::testing::Test {
 protected:
  JoinFixture() : topo(MakeFigure1(sim)), domain(sim, topo) {
    // Host A's group: R4 primary core, R9 secondary (section 2.5 setup).
    domain.RegisterGroup(kGroup, {topo.node("R4"), topo.node("R9")});
    domain.Start();
    sim.RunUntil(kSecond);  // let querier elections settle
  }

  Simulator sim{1};
  Topology topo;
  CbtDomain domain;
};

TEST_F(JoinFixture, HostAJoinBuildsBranchR1R3R4) {
  domain.host("A").JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);

  // "A new CBT branch has been created, attaching subnet S1 to the CBT
  // delivery tree": R1 child of R3, R3 child of R4 (the primary core).
  auto& r1 = domain.router("R1");
  auto& r3 = domain.router("R3");
  auto& r4 = domain.router("R4");

  ASSERT_TRUE(r1.IsOnTree(kGroup));
  ASSERT_TRUE(r3.IsOnTree(kGroup));
  ASSERT_TRUE(r4.IsOnTree(kGroup));

  const FibEntry* r1_entry = r1.fib().Find(kGroup);
  EXPECT_EQ(sim.FindNodeByAddress(r1_entry->parent_address), topo.node("R3"));
  const FibEntry* r3_entry = r3.fib().Find(kGroup);
  EXPECT_EQ(sim.FindNodeByAddress(r3_entry->parent_address), topo.node("R4"));
  // R3 must list R1 as child via R1's address on the R1-R3 link.
  Ipv4Address r1_link_addr;
  for (const auto& iface : sim.node(topo.node("R1")).interfaces) {
    if (iface.subnet == topo.subnet("R1-R3")) r1_link_addr = iface.address;
  }
  EXPECT_NE(r3_entry->FindChild(r1_link_addr), nullptr);

  const FibEntry* r4_entry = r4.fib().Find(kGroup);
  EXPECT_TRUE(r4_entry->is_core);
  EXPECT_TRUE(r4_entry->is_primary_core);
  EXPECT_FALSE(r4_entry->HasParent());
  EXPECT_EQ(r4_entry->children.size(), 1u);

  // No other router should have state.
  EXPECT_EQ(domain.OnTreeRouters(kGroup).size(), 3u);
}

TEST_F(JoinFixture, SecondJoinTerminatesAtOnTreeRouter) {
  domain.host("A").JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);
  const auto r4_acks = domain.router("R4").stats().acks_sent;

  // Host B joins; R6 is D-DR, path via R2 to R3 which is already on-tree,
  // so the join must NOT travel to R4 ("it need not travel all the way").
  domain.host("B").JoinGroup(kGroup);
  sim.RunUntil(20 * kSecond);

  EXPECT_EQ(domain.router("R4").stats().acks_sent, r4_acks)
      << "R4 must not see B's join";
  EXPECT_TRUE(domain.router("R2").IsOnTree(kGroup));
}

TEST_F(JoinFixture, ProxyAckLeavesDDrStateless) {
  domain.host("A").JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);
  domain.host("B").JoinGroup(kGroup);
  sim.RunUntil(20 * kSecond);

  // Section 2.6: R6 (D-DR) originated the join, R2 was the first hop on
  // the same subnet S4 and acks with PROXY-ACK; R6 keeps no FIB entry and
  // R2 becomes G-DR for the group on S4.
  auto& r2 = domain.router("R2");
  auto& r6 = domain.router("R6");

  EXPECT_FALSE(r6.IsOnTree(kGroup));
  EXPECT_TRUE(r6.JoinedViaGdr(kGroup));
  EXPECT_EQ(r6.stats().proxy_acks_received, 1u);
  EXPECT_EQ(r2.stats().proxy_acks_sent, 1u);

  // R2 has a FIB entry with parent R3 and NO child for S4.
  const FibEntry* r2_entry = r2.fib().Find(kGroup);
  ASSERT_NE(r2_entry, nullptr);
  EXPECT_EQ(sim.FindNodeByAddress(r2_entry->parent_address), topo.node("R3"));
  EXPECT_TRUE(r2_entry->children.empty());

  VifIndex r2_s4 = kInvalidVif;
  for (const auto& iface : sim.node(topo.node("R2")).interfaces) {
    if (iface.subnet == topo.subnet("S4")) r2_s4 = iface.vif;
  }
  EXPECT_TRUE(r2.IsGdr(kGroup, r2_s4));
}

TEST_F(JoinFixture, JoinAcksCarryFullCoreList) {
  domain.host("A").JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);
  const FibEntry* entry = domain.router("R1").fib().Find(kGroup);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->cores.size(), 2u);
  EXPECT_EQ(sim.FindNodeByAddress(entry->cores[0]), topo.node("R4"));
  EXPECT_EQ(sim.FindNodeByAddress(entry->cores[1]), topo.node("R9"));
}

TEST_F(JoinFixture, JoinTowardSecondaryCoreBuildsCoreBackbone) {
  // Host G's DR (R8) targets secondary core R9 (index 1). R9 must ack,
  // then rejoin the primary core R4 (section 2.5: REJOIN-ACTIVE).
  domain.host("G").JoinGroupWithCores(
      kGroup, domain.directory().CoresFor(kGroup), /*target_index=*/1);
  sim.RunUntil(20 * kSecond);

  auto& r9 = domain.router("R9");
  ASSERT_TRUE(r9.IsOnTree(kGroup));
  const FibEntry* r9_entry = r9.fib().Find(kGroup);
  EXPECT_TRUE(r9_entry->is_core);
  EXPECT_FALSE(r9_entry->is_primary_core);
  // The core tree R9 -> R8 -> R4 exists.
  ASSERT_TRUE(r9_entry->HasParent());
  EXPECT_EQ(sim.FindNodeByAddress(r9_entry->parent_address), topo.node("R8"));
  ASSERT_TRUE(domain.router("R8").IsOnTree(kGroup));
  ASSERT_TRUE(domain.router("R4").IsOnTree(kGroup));
  EXPECT_TRUE(domain.router("R4").fib().Find(kGroup)->is_primary_core);
}

TEST_F(JoinFixture, PendingJoinCachesDownstreamJoins) {
  // A and G join simultaneously; G's join via R8 targets R4 while A's is
  // in flight through R3. No deadlock, single consistent tree.
  domain.host("A").JoinGroup(kGroup);
  domain.host("G").JoinGroup(kGroup);
  sim.RunUntil(20 * kSecond);

  for (const char* name : {"R1", "R3", "R4", "R8"}) {
    EXPECT_TRUE(domain.router(name).IsOnTree(kGroup)) << name;
  }
  // Exactly one parent each, no cycles: walk up from R1 and R8 to R4.
  const FibEntry* r8_entry = domain.router("R8").fib().Find(kGroup);
  EXPECT_EQ(sim.FindNodeByAddress(r8_entry->parent_address), topo.node("R4"));
}

TEST_F(JoinFixture, EstablishCallbackFiresOnce) {
  int established = 0;
  CbtRouter::Callbacks cb;
  cb.on_group_established = [&](Ipv4Address g) {
    EXPECT_EQ(g, kGroup);
    ++established;
  };
  domain.router("R1").set_callbacks(std::move(cb));
  domain.host("A").JoinGroup(kGroup);
  sim.RunUntil(30 * kSecond);
  EXPECT_EQ(established, 1);
}

TEST_F(JoinFixture, UnknownGroupWithoutCoresNeverJoins) {
  const Ipv4Address orphan(239, 200, 0, 1);
  domain.host("A").JoinGroupWithCores(orphan, {}, 0);
  sim.RunUntil(10 * kSecond);
  EXPECT_FALSE(domain.router("R1").IsOnTree(orphan));
  EXPECT_FALSE(domain.router("R1").IsPending(orphan));
}

TEST_F(JoinFixture, CoreListFromRpCoreReportUsedWithoutDirectory) {
  // Remove the directory mapping; the host-supplied RP/Core-Report alone
  // must drive the join (section 2.2's host-learned cores).
  const Ipv4Address g2(239, 50, 0, 1);
  const Ipv4Address r4_addr = sim.PrimaryAddress(topo.node("R4"));
  domain.host("A").JoinGroupWithCores(g2, {r4_addr}, 0);
  sim.RunUntil(10 * kSecond);
  EXPECT_TRUE(domain.router("R1").IsOnTree(g2));
  EXPECT_TRUE(domain.router("R4").IsOnTree(g2));
}

TEST_F(JoinFixture, HostsReceiveJoinConfirmation) {
  // Section 2.5 (-03) proposal: once the D-DR's join is acked, member
  // hosts on the LAN are told "the delivery tree has been joined".
  auto& a = domain.host("A");
  EXPECT_FALSE(a.JoinConfirmed(kGroup));
  a.JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);
  EXPECT_TRUE(a.JoinConfirmed(kGroup));

  // The proxy-ack path confirms too (D-DR R6, G-DR R2).
  auto& b = domain.host("B");
  b.JoinGroup(kGroup);
  sim.RunUntil(20 * kSecond);
  EXPECT_TRUE(b.JoinConfirmed(kGroup));

  // Leaving clears the flag.
  a.LeaveGroup(kGroup);
  EXPECT_FALSE(a.JoinConfirmed(kGroup));
}

TEST_F(JoinFixture, JoinConfirmationCanBeDisabled) {
  netsim::Simulator sim2{1};
  netsim::Topology topo2 = MakeFigure1(sim2);
  CbtConfig config;
  config.notify_hosts_on_join = false;
  CbtDomain quiet(sim2, topo2, config);
  quiet.RegisterGroup(kGroup, {topo2.node("R4")});
  quiet.Start();
  sim2.RunUntil(kSecond);
  auto& a = quiet.host("A");
  a.JoinGroup(kGroup);
  sim2.RunUntil(10 * kSecond);
  EXPECT_TRUE(quiet.router("R1").IsOnTree(kGroup));
  EXPECT_FALSE(a.JoinConfirmed(kGroup));
}

TEST_F(JoinFixture, TreePrinterRendersTheBranch) {
  std::ostringstream empty;
  EXPECT_EQ(PrintTree(domain, kGroup, empty), 0u);
  EXPECT_NE(empty.str().find("no routers on-tree"), std::string::npos);

  domain.host("A").JoinGroup(kGroup);
  domain.host("G").JoinGroup(kGroup);
  sim.RunUntil(20 * kSecond);

  std::ostringstream os;
  const std::size_t printed = PrintTree(domain, kGroup, os);
  EXPECT_EQ(printed, domain.OnTreeRouters(kGroup).size());
  const std::string out = os.str();
  EXPECT_NE(out.find("R4 [primary core]"), std::string::npos);
  EXPECT_NE(out.find("R1"), std::string::npos);
  EXPECT_NE(out.find("S1"), std::string::npos);  // member LAN annotation
  EXPECT_NE(out.find("+- "), std::string::npos);
}

// CBT asks unicast routing only for next hops toward cores, so a warm-up
// of single-core groups builds one destination tree per core and no
// per-source table (RouteManager::NextHopToward).
TEST(JoinRoutingWork, GridWarmUpBuildsOneDestinationTreePerCore) {
  Simulator sim{1};
  Topology topo = netsim::MakeGrid(sim, 16, 16);
  CbtDomain domain(sim, topo);
  constexpr std::uint32_t kGroups = 8;
  constexpr std::uint32_t kMembers = 8;
  const auto lans = static_cast<std::uint32_t>(topo.router_lans.size());
  std::vector<Ipv4Address> groups;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    groups.emplace_back(239, 12, 0, static_cast<std::uint8_t>(g));
    const std::uint32_t at = ((g + 1) * lans) / (kGroups + 1);
    domain.RegisterGroup(groups.back(), {topo.routers[at]});
  }
  std::vector<HostAgent*> members;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    for (std::uint32_t m = 0; m < kMembers; ++m) {
      const std::uint32_t lan = ((m * lans) / kMembers + g * 7) % lans;
      members.push_back(&domain.AddHost(
          topo.router_lans[lan], netsim::Numbered("m", g * kMembers + m)));
    }
  }
  domain.Start();
  sim.RunUntil(kSecond);
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    members[i]->JoinGroup(groups[i / kMembers]);
  }
  sim.RunUntil(30 * kSecond);

  for (std::uint32_t g = 0; g < kGroups; ++g) {
    const std::uint32_t at = ((g + 1) * lans) / (kGroups + 1);
    const FibEntry* core_entry =
        domain.router(topo.routers[at]).fib().Find(groups[g]);
    ASSERT_NE(core_entry, nullptr) << "group " << g;
    EXPECT_FALSE(core_entry->children.empty()) << "group " << g;
  }
  const routing::RouteManager::Stats& work = domain.routes().stats();
  EXPECT_GT(work.lookups, 0u);
  EXPECT_EQ(work.tables_computed, 0u);
  EXPECT_EQ(work.dest_trees_computed, kGroups);
}

}  // namespace
}  // namespace cbt::core
