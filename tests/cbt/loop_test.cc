// Route-loop detection (section 6.3), replayed on the spec's Figure-5
// topology with static next-hop overrides standing in for transient
// unicast-routing asymmetry.
#include <gtest/gtest.h>

#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::MakeFigure5Loop;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 6, 3, 0);

class LoopFixture : public ::testing::Test {
 protected:
  LoopFixture() : topo(MakeFigure5Loop(sim)), domain(sim, topo) {
    domain.RegisterGroup(kGroup, {topo.node("R1")});
    domain.Start();
    sim.RunUntil(kSecond);
    // Members behind R4 and R5 build the tree
    // R4 -> R3 -> R2 -> R1(core), R5 -> R4.
    domain.AddHost(lan("R4"), "m4").JoinGroup(kGroup);
    sim.RunUntil(10 * kSecond);
    domain.AddHost(lan("R5"), "m5").JoinGroup(kGroup);
    sim.RunUntil(20 * kSecond);
  }

  SubnetId lan(const std::string& router) {
    return topo.subnet("lan-" + router);
  }

  /// The subnet holding R1's primary address (joins toward R1 resolve it).
  SubnetId CoreSubnet() {
    return sim.node(topo.node("R1")).interfaces.front().subnet;
  }

  VifIndex VifToward(const std::string& from, const std::string& to) {
    const NodeId f = topo.node(from);
    const NodeId t = topo.node(to);
    for (const auto& iface : sim.node(f).interfaces) {
      for (const auto& [peer, pv] : sim.subnet(iface.subnet).attachments) {
        if (peer == t) return iface.vif;
      }
    }
    return kInvalidVif;
  }

  Ipv4Address AddressOn(const std::string& router, SubnetId subnet) {
    for (const auto& iface : sim.node(topo.node(router)).interfaces) {
      if (iface.subnet == subnet) return iface.address;
    }
    return Ipv4Address{};
  }

  Simulator sim{1};
  Topology topo;
  CbtDomain domain;
};

TEST_F(LoopFixture, InitialTreeMatchesNarrative) {
  ASSERT_TRUE(domain.router("R3").IsOnTree(kGroup));
  const FibEntry* r3 = domain.router("R3").fib().Find(kGroup);
  EXPECT_EQ(sim.FindNodeByAddress(r3->parent_address), topo.node("R2"));
  EXPECT_EQ(r3->children.size(), 1u);  // R4
  const FibEntry* r5 = domain.router("R5").fib().Find(kGroup);
  EXPECT_EQ(sim.FindNodeByAddress(r5->parent_address), topo.node("R4"));
  EXPECT_FALSE(domain.router("R6").IsOnTree(kGroup));
}

TEST_F(LoopFixture, RejoinThroughLoopIsDetectedAndBroken) {
  // Override routing exactly as section 6.3 describes: "R3 believes its
  // best next-hop to R1 is R6, and R6 believes R5 is its best next-hop".
  auto& routes = domain.routes();
  const SubnetId core_subnet = CoreSubnet();
  routes.SetStaticNextHop(
      topo.node("R3"), core_subnet, VifToward("R3", "R6"),
      AddressOn("R6", sim.interface(topo.node("R3"), VifToward("R3", "R6"))
                          .subnet));
  routes.SetStaticNextHop(
      topo.node("R6"), core_subnet, VifToward("R6", "R5"),
      AddressOn("R5", sim.interface(topo.node("R6"), VifToward("R6", "R5"))
                          .subnet));

  int loops = 0;
  CbtRouter::Callbacks cb;
  cb.on_loop_detected = [&](Ipv4Address g) {
    EXPECT_EQ(g, kGroup);
    ++loops;
  };
  domain.router("R3").set_callbacks(std::move(cb));

  // R3 re-joins (as after a parent failure); subcode must be
  // REJOIN-ACTIVE since R4 is its child.
  domain.router("R3").TriggerReconnect(kGroup);
  sim.RunUntil(sim.Now() + 5 * kSecond);

  // The REJOIN travelled R3 -> R6 -> R5 (on-tree), was converted to
  // REJOIN-NACTIVE, went up R5 -> R4 -> R3, and R3 recognised its own
  // origin: loop detected, QUIT sent.
  EXPECT_EQ(loops, 1);
  EXPECT_GE(domain.router("R5").stats().rejoins_converted, 1u);
  EXPECT_GE(domain.router("R3").stats().loops_detected, 1u);
  EXPECT_GE(domain.router("R3").stats().quits_sent, 1u);

  // Restore sane routing; R3's scheduled retry re-attaches via R2.
  routes.ClearStaticNextHops();
  sim.RunUntil(sim.Now() + 60 * kSecond);
  const FibEntry* r3 = domain.router("R3").fib().Find(kGroup);
  ASSERT_NE(r3, nullptr);
  ASSERT_TRUE(r3->HasParent());
  EXPECT_EQ(sim.FindNodeByAddress(r3->parent_address), topo.node("R2"));

  // End-to-end sanity: data from behind the core reaches both members.
  auto& src = domain.AddHost(lan("R1"), "src");
  src.SendToGroup(kGroup, std::vector<std::uint8_t>{1, 2, 3});
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(domain.host("m4").ReceivedCount(kGroup), 1u);
  EXPECT_EQ(domain.host("m5").ReceivedCount(kGroup), 1u);
}

TEST_F(LoopFixture, RejoinReachingPrimaryCoreIsAckedNormally) {
  // Section 6.3's non-loop variant: R3's rejoin goes the legitimate way
  // to the primary core and simply re-attaches.
  domain.router("R3").TriggerReconnect(kGroup);
  sim.RunUntil(sim.Now() + 30 * kSecond);
  const FibEntry* r3 = domain.router("R3").fib().Find(kGroup);
  ASSERT_NE(r3, nullptr);
  ASSERT_TRUE(r3->HasParent());
  EXPECT_EQ(sim.FindNodeByAddress(r3->parent_address), topo.node("R2"));
  EXPECT_EQ(domain.router("R3").stats().loops_detected, 0u);
}

TEST_F(LoopFixture, NactiveRejoinReachingPrimaryGetsDirectAck) {
  // A rejoin that is converted on an on-tree router and climbs to the
  // primary core is answered with JOIN-ACK subcode REJOIN-NACTIVE sent
  // straight to the converting router.
  // Build it: R6 joins with a child (make m6 a member first so R6 is on
  // tree with a child-ish state) — simpler: R5 rejoins through R6? Use
  // the narrative instead: R5 triggers reconnect; its best next-hop to R1
  // is R4 (on-tree) -> converted to NACTIVE by R4 -> climbs R4's parent
  // chain R3 -> R2 -> R1 (primary), which acks directly to R4.
  auto& r5 = domain.router("R5");
  // Give R5 a child so the rejoin is REJOIN-ACTIVE: m6 joins via R6,
  // whose path to R1 is R6 -> R3 tie-broken... force via override: R6's
  // next hop toward the core-subnet is R5.
  domain.routes().SetStaticNextHop(
      topo.node("R6"), CoreSubnet(), VifToward("R6", "R5"),
      AddressOn("R5", sim.interface(topo.node("R6"), VifToward("R6", "R5"))
                          .subnet));
  domain.AddHost(lan("R6"), "m6").JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  ASSERT_FALSE(r5.fib().Find(kGroup)->children.empty());

  const auto acks_before = domain.router("R1").stats().acks_sent;
  r5.TriggerReconnect(kGroup);
  sim.RunUntil(sim.Now() + 10 * kSecond);

  // R5 re-attached (to R4, its best next hop), no loop was declared, and
  // the primary core emitted the direct NACTIVE ack.
  EXPECT_EQ(r5.stats().loops_detected, 0u);
  ASSERT_TRUE(r5.fib().Find(kGroup)->HasParent());
  EXPECT_GT(domain.router("R1").stats().acks_sent, acks_before);
  EXPECT_GE(domain.router("R4").stats().rejoins_converted, 1u);
}

TEST_F(LoopFixture, CachedRejoinIsConvertedWhenThePendingJoinResolves) {
  // Section 6.3 when the first router a rejoin meets is itself joining:
  // R6 is pending on its own ACTIVE-JOIN (via R5) when R3's REJOIN-ACTIVE
  // reaches it, so it caches the rejoin. No upstream router sees that
  // rejoin, so R6 must convert it once its own ack arrives; the
  // REJOIN-NACTIVE then climbs R5 -> R4 -> R3, which finds the loop.
  auto& routes = domain.routes();
  const SubnetId core_subnet = CoreSubnet();
  routes.SetStaticNextHop(
      topo.node("R3"), core_subnet, VifToward("R3", "R6"),
      AddressOn("R6", sim.interface(topo.node("R3"), VifToward("R3", "R6"))
                          .subnet));
  routes.SetStaticNextHop(
      topo.node("R6"), core_subnet, VifToward("R6", "R5"),
      AddressOn("R5", sim.interface(topo.node("R6"), VifToward("R6", "R5"))
                          .subnet));

  domain.router("R6").InitiateJoin(kGroup,
                                   {sim.PrimaryAddress(topo.node("R1"))});
  domain.router("R3").TriggerReconnect(kGroup);
  sim.RunUntil(sim.Now() + kSecond);

  EXPECT_EQ(domain.router("R6").stats().joins_cached, 1u);
  EXPECT_EQ(domain.router("R6").stats().rejoins_converted, 1u);
  EXPECT_EQ(domain.router("R3").stats().loops_detected, 1u);
}

}  // namespace
}  // namespace cbt::core
