// The DVMRP-style flood-and-prune baseline: RPF flooding, truncation,
// prune propagation, prune expiry re-flood, and grafting.
#include <gtest/gtest.h>

#include "baselines/dvmrp_domain.h"
#include "netsim/topologies.h"

namespace cbt::baselines {
namespace {

using netsim::MakeLine;
using netsim::MakeStar;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 10, 0, 1);
const std::vector<std::uint8_t> kPayload{7, 7};

class DvmrpLineFixture : public ::testing::Test {
 protected:
  DvmrpLineFixture() : topo(MakeLine(sim, 5)) {
    domain.emplace(sim, topo);
    domain->Start();
    sim.RunUntil(kSecond);
    sender = &domain->AddHost(topo.router_lans[0], "src");
    member = &domain->AddHost(topo.router_lans[4], "dst");
  }

  Simulator sim{1};
  Topology topo;
  std::optional<DvmrpDomain> domain;
  core::HostAgent* sender = nullptr;
  core::HostAgent* member = nullptr;
};

TEST_F(DvmrpLineFixture, FloodReachesMemberWithoutAnyJoinProtocol) {
  member->JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(5 * kSecond);
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(member->ReceivedCount(kGroup), 1u);
}

TEST_F(DvmrpLineFixture, DataCreatesPerSourceStateEverywhere) {
  member->JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(5 * kSecond);
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(10 * kSecond);
  // Every router on the line holds (S,G) state — the O(S x G) cost.
  for (const NodeId r : topo.routers) {
    EXPECT_GE(domain->router(r).ForwardingEntries(), 1u)
        << sim.node(r).name;
  }
}

TEST_F(DvmrpLineFixture, MemberlessBranchesPruneBack) {
  // No members anywhere: data floods once, prunes converge, and a second
  // packet shortly after is stopped near the source.
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(5 * kSecond);
  const auto& leaf = domain->router(topo.routers[4]).stats();
  EXPECT_GE(leaf.prunes_sent, 1u);

  const auto forwarded_before =
      domain->router(topo.routers[3]).stats().data_forwarded;
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(domain->router(topo.routers[3]).stats().data_forwarded,
            forwarded_before)
      << "pruned branch must not carry the second packet";
}

TEST_F(DvmrpLineFixture, PruneExpiryCausesReflood) {
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(5 * kSecond);
  const auto forwarded_before =
      domain->router(topo.routers[3]).stats().data_forwarded;
  // Past the 120s prune lifetime, traffic floods again.
  sim.RunUntil(sim.Now() + 150 * kSecond);
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  EXPECT_GT(domain->router(topo.routers[3]).stats().data_forwarded,
            forwarded_before);
}

TEST_F(DvmrpLineFixture, GraftReattachesPrunedBranch) {
  // Flood + prune first.
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(5 * kSecond);
  ASSERT_GE(domain->router(topo.routers[4]).stats().prunes_sent, 1u);

  // Member joins on the pruned leaf: graft must restore delivery for the
  // next packet, well before prune expiry.
  member->JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_GE(domain->router(topo.routers[4]).stats().grafts_sent, 1u);

  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  EXPECT_EQ(member->ReceivedCount(kGroup), 1u);
}

TEST_F(DvmrpLineFixture, RpfDropsPacketsArrivingOffShortestPath) {
  member->JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(5 * kSecond);
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(10 * kSecond);
  // On a line there is no alternate path, so no RPF drops…
  EXPECT_EQ(domain->router(topo.routers[2]).stats().data_dropped_rpf, 0u);
}

TEST(DvmrpStar, RpfSuppressesDuplicatesOnMesh) {
  // Star + ring of spokes would create duplicates without RPF; with only
  // the star (hub) the flood fans out once per spoke.
  Simulator sim{1};
  Topology topo = MakeStar(sim, 4);
  DvmrpDomain domain(sim, topo);
  domain.Start();
  sim.RunUntil(kSecond);

  auto& src = domain.AddHost(topo.router_lans[1], "src");
  auto& dst1 = domain.AddHost(topo.router_lans[2], "d1");
  auto& dst2 = domain.AddHost(topo.router_lans[3], "d2");
  dst1.JoinGroupWithCores(kGroup, {}, 0);
  dst2.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(5 * kSecond);

  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(dst1.ReceivedCount(kGroup), 1u);
  EXPECT_EQ(dst2.ReceivedCount(kGroup), 1u);
}

TEST_F(DvmrpLineFixture, GraftIsAcknowledgedHopByHop) {
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(5 * kSecond);
  ASSERT_GE(domain->router(topo.routers[4]).stats().prunes_sent, 1u);

  member->JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  const auto& leaf = domain->router(topo.routers[4]).stats();
  EXPECT_GE(leaf.grafts_sent, 1u);
  EXPECT_GE(leaf.graft_acks_received, 1u);
  EXPECT_GE(domain->router(topo.routers[3]).stats().graft_acks_sent, 1u);
}

TEST_F(DvmrpLineFixture, GraftRetransmitsUntilAcked) {
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(5 * kSecond);
  ASSERT_GE(domain->router(topo.routers[4]).stats().prunes_sent, 1u);

  // Make the leaf's uplink fully lossy: the graft (and/or its ack) is
  // lost, forcing retransmission; then heal the link and converge.
  const SubnetId uplink = [&] {
    for (const auto& iface : sim.node(topo.routers[4]).interfaces) {
      for (const auto& [peer, pv] : sim.subnet(iface.subnet).attachments) {
        if (peer == topo.routers[3]) return iface.subnet;
      }
    }
    return SubnetId{};
  }();
  sim.SetSubnetLossRate(uplink, 1.0);
  member->JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 12 * kSecond);
  sim.SetSubnetLossRate(uplink, 0.0);
  sim.RunUntil(sim.Now() + 30 * kSecond);

  const auto& leaf = domain->router(topo.routers[4]).stats();
  EXPECT_GE(leaf.graft_retransmits, 1u);
  EXPECT_GE(leaf.graft_acks_received, 1u);

  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  EXPECT_EQ(member->ReceivedCount(kGroup), 1u);
}

TEST(DvmrpCycle, NonRpfArrivalsPrunedOnMesh) {
  // 2x2 grid: floods reach some routers over non-RPF links; those
  // routers must send prunes back (the RFC 1075 leaf-detection path) and
  // the duplicates stop for subsequent packets.
  Simulator sim{1};
  Topology topo = netsim::MakeGrid(sim, 2, 2);
  DvmrpDomain domain(sim, topo);
  domain.Start();
  sim.RunUntil(kSecond);
  auto& src = domain.AddHost(topo.router_lans[0], "src");
  auto& dst = domain.AddHost(topo.router_lans[3], "dst");
  dst.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(5 * kSecond);

  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(dst.ReceivedCount(kGroup), 1u);
  std::uint64_t rpf_drops = 0, prunes = 0;
  for (const NodeId r : topo.routers) {
    rpf_drops += domain.router(r).stats().data_dropped_rpf;
    prunes += domain.router(r).stats().prunes_sent;
  }
  EXPECT_GE(rpf_drops, 1u) << "the square must produce a duplicate";
  EXPECT_GE(prunes, 1u) << "non-RPF arrivals must trigger prunes";

  // Second packet: duplicates suppressed on the pruned links, delivery
  // still exactly-once.
  const auto drops_before = rpf_drops;
  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(dst.ReceivedCount(kGroup), 2u);
  rpf_drops = 0;
  for (const NodeId r : topo.routers) {
    rpf_drops += domain.router(r).stats().data_dropped_rpf;
  }
  EXPECT_EQ(rpf_drops, drops_before)
      << "pruned non-RPF branches must not regenerate duplicates";
}

TEST(DvmrpMessageCodec, RoundTripAndValidation) {
  DvmrpMessage msg;
  msg.type = DvmrpType::kPrune;
  msg.group = Ipv4Address(239, 1, 1, 1);
  msg.source = Ipv4Address(10, 0, 0, 7);
  msg.lifetime_s = 120;
  const auto bytes = msg.Encode();
  const auto decoded = DvmrpMessage::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, DvmrpType::kPrune);
  EXPECT_EQ(decoded->group, Ipv4Address(239, 1, 1, 1));
  EXPECT_EQ(decoded->source, Ipv4Address(10, 0, 0, 7));
  EXPECT_EQ(decoded->lifetime_s, 120u);

  auto corrupted = bytes;
  corrupted[5] ^= 1;
  EXPECT_FALSE(DvmrpMessage::Decode(corrupted).has_value());
  EXPECT_FALSE(
      DvmrpMessage::Decode({bytes.data(), bytes.size() - 1}).has_value());
}

TEST(DvmrpStateScaling, StateGrowsWithSourcesTimesGroups) {
  // The core claim of E1 in microcosm: 2 groups x 3 sources -> at least
  // 6 (S,G) entries at a transit router.
  Simulator sim{1};
  Topology topo = MakeLine(sim, 3);
  DvmrpDomain domain(sim, topo);
  domain.Start();
  sim.RunUntil(kSecond);

  auto& m = domain.AddHost(topo.router_lans[2], "m");
  const Ipv4Address g1(239, 1, 0, 1), g2(239, 1, 0, 2);
  m.JoinGroupWithCores(g1, {}, 0);
  m.JoinGroupWithCores(g2, {}, 0);
  sim.RunUntil(5 * kSecond);

  for (int s = 0; s < 3; ++s) {
    auto& src = domain.AddHost(topo.router_lans[0], netsim::Numbered("s", s));
    src.SendToGroup(g1, kPayload);
    src.SendToGroup(g2, kPayload);
  }
  sim.RunUntil(15 * kSecond);
  EXPECT_GE(domain.router(topo.routers[1]).ForwardingEntries(), 6u);
}

}  // namespace
}  // namespace cbt::baselines
