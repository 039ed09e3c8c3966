#include "netsim/topologies.h"

#include <gtest/gtest.h>

#include "routing/route_manager.h"

namespace cbt::netsim {
namespace {

TEST(Figure1, HasAllNamedEntities) {
  Simulator sim;
  const Topology topo = MakeFigure1(sim);
  for (int i = 1; i <= 12; ++i) {
    EXPECT_TRUE(topo.nodes.contains(Numbered("R", i))) << i;
  }
  for (int i = 1; i <= 15; ++i) {
    EXPECT_TRUE(topo.subnets.contains(Numbered("S", i))) << i;
  }
  for (const char* host : {"A", "B", "C", "D", "E", "F", "G", "H", "I", "J",
                           "K", "L"}) {
    EXPECT_TRUE(topo.nodes.contains(host)) << host;
  }
  EXPECT_EQ(topo.routers.size(), 12u);
  EXPECT_EQ(topo.hosts.size(), 12u);
}

TEST(Figure1, NarrativeRoutesHold) {
  // The spec's section 2.5/2.6 walkthroughs pin down several next hops.
  Simulator sim;
  const Topology topo = MakeFigure1(sim);
  routing::RouteManager routes(sim);

  const Ipv4Address r4 = sim.PrimaryAddress(topo.node("R4"));

  // "R1 ... unicast a JOIN-REQUEST ... to the next-hop on the path to R4
  // (R3)".
  const auto r1_route = routes.Lookup(topo.node("R1"), r4);
  ASSERT_TRUE(r1_route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(r1_route->next_hop), topo.node("R3"));

  // "R6's routing table says the next-hop on the path to R4 is R2, which
  // is on the same subnet as R6."
  const auto r6_route = routes.Lookup(topo.node("R6"), r4);
  ASSERT_TRUE(r6_route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(r6_route->next_hop), topo.node("R2"));
  const Interface& out = sim.interface(topo.node("R6"), r6_route->vif);
  EXPECT_EQ(sim.subnet(out.subnet).name, "S4");

  // "R9 unicasts a JOIN_REQUEST to R8, its best next-hop to the primary
  // core, R4."
  const auto r9_route = routes.Lookup(topo.node("R9"), r4);
  ASSERT_TRUE(r9_route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(r9_route->next_hop), topo.node("R8"));
}

TEST(Figure1, R6IsLowestAddressedOnS4) {
  // R6 must win the querier election (and thus D-DR duty) on S4.
  Simulator sim;
  const Topology topo = MakeFigure1(sim);
  const auto& s4 = sim.subnet(topo.subnet("S4"));
  Ipv4Address lowest(0xFFFFFFFFu);
  NodeId lowest_node;
  for (const auto& [node, vif] : s4.attachments) {
    if (!sim.node(node).is_router) continue;
    const Ipv4Address addr = sim.interface(node, vif).address;
    if (addr < lowest) {
      lowest = addr;
      lowest_node = node;
    }
  }
  EXPECT_EQ(lowest_node, topo.node("R6"));
}

TEST(Line, IsAChain) {
  Simulator sim;
  const Topology topo = MakeLine(sim, 5);
  EXPECT_EQ(topo.routers.size(), 5u);
  routing::RouteManager routes(sim);
  EXPECT_DOUBLE_EQ(routes.Distance(topo.routers[0], topo.routers[4]), 4.0);
  EXPECT_EQ(topo.router_lans.size(), 5u);
}

TEST(Star, HubIsOneHopFromEverySpoke) {
  Simulator sim;
  const Topology topo = MakeStar(sim, 6);
  routing::RouteManager routes(sim);
  for (std::size_t i = 1; i < topo.routers.size(); ++i) {
    EXPECT_DOUBLE_EQ(routes.Distance(topo.routers[0], topo.routers[i]), 1.0);
  }
  // Spokes are two hops from each other, via the hub.
  EXPECT_DOUBLE_EQ(routes.Distance(topo.routers[1], topo.routers[2]), 2.0);
}

TEST(Grid, ManhattanDistances) {
  Simulator sim;
  const Topology topo = MakeGrid(sim, 4, 3);
  EXPECT_EQ(topo.routers.size(), 12u);
  routing::RouteManager routes(sim);
  // Opposite corners: (0,0) to (3,2) = 5 hops.
  EXPECT_DOUBLE_EQ(routes.Distance(topo.routers[0], topo.routers[11]), 5.0);
}

TEST(BinaryTree, DepthMatches) {
  Simulator sim;
  const Topology topo = MakeBinaryTree(sim, 4);
  EXPECT_EQ(topo.routers.size(), 15u);
  routing::RouteManager routes(sim);
  // Root to deepest leaf: 3 hops; leaf to sibling-subtree leaf: 6.
  EXPECT_DOUBLE_EQ(routes.Distance(topo.routers[0], topo.routers[14]), 3.0);
  EXPECT_DOUBLE_EQ(routes.Distance(topo.routers[7], topo.routers[14]), 6.0);
}

TEST(Waxman, IsConnectedAndDeterministic) {
  Simulator sim1, sim2;
  WaxmanParams params;
  params.n = 40;
  params.seed = 99;
  const Topology t1 = MakeWaxman(sim1, params);
  const Topology t2 = MakeWaxman(sim2, params);
  EXPECT_EQ(sim1.subnet_count(), sim2.subnet_count());

  routing::RouteManager routes(sim1);
  for (const NodeId r : t1.routers) {
    EXPECT_LT(routes.Distance(t1.routers[0], r),
              routing::RouteManager::kInfinity);
  }
}

TEST(Waxman, DifferentSeedsGiveDifferentGraphs) {
  Simulator sim1, sim2;
  WaxmanParams a, b;
  a.n = b.n = 40;
  a.seed = 1;
  b.seed = 2;
  MakeWaxman(sim1, a);
  MakeWaxman(sim2, b);
  EXPECT_NE(sim1.subnet_count(), sim2.subnet_count());
}

TEST(Figure5, RingPlusTail) {
  Simulator sim;
  const Topology topo = MakeFigure5Loop(sim);
  EXPECT_EQ(topo.routers.size(), 6u);
  routing::RouteManager routes(sim);
  // R1 reaches R5 through R2-R3-R4 (3 hops to R4, 4 to R5 going the short
  // way via R3-R4 or R3-R6-R5 — both length 4 from R1... actual: R1-R2-R3
  // then min(R4-R5, R6-R5) -> 4 hops). Just require connectivity and the
  // ring's alternative path.
  EXPECT_DOUBLE_EQ(routes.Distance(topo.node("R1"), topo.node("R3")), 2.0);
  EXPECT_DOUBLE_EQ(routes.Distance(topo.node("R3"), topo.node("R5")), 2.0);
}

TEST(TransitStub, ConnectedWithHierarchicalDelays) {
  Simulator sim;
  TransitStubParams params;
  params.seed = 7;
  const Topology topo = MakeTransitStub(sim, params);
  EXPECT_EQ(topo.routers.size(),
            (std::size_t)(params.transit_nodes +
                          params.stub_domains * params.stub_size));
  routing::RouteManager routes(sim);
  // Fully connected.
  for (const NodeId r : topo.routers) {
    EXPECT_LT(routes.Distance(topo.routers[0], r),
              routing::RouteManager::kInfinity);
  }
  // Stub-to-stub paths cross the slow transit backbone: delay between two
  // routers in different stubs must include at least one 10ms transit hop
  // whenever their attachment points differ. Weak check: the maximum
  // router-pair delay comfortably exceeds the pure-stub delay budget.
  SimDuration max_delay = 0;
  for (const NodeId a : topo.routers) {
    max_delay = std::max(max_delay, routes.PathDelay(topo.routers[0], a));
  }
  EXPECT_GT(max_delay, 2 * params.stub_delay * params.stub_size);
}

TEST(TransitStub, DeterministicPerSeed) {
  Simulator a, b;
  TransitStubParams params;
  params.seed = 99;
  MakeTransitStub(a, params);
  MakeTransitStub(b, params);
  EXPECT_EQ(a.subnet_count(), b.subnet_count());
}

TEST(AttachHost, AddsHostToLan) {
  Simulator sim;
  Topology topo = MakeLine(sim, 2);
  const NodeId host = AttachHost(sim, topo, topo.router_lans[0], "h0");
  EXPECT_FALSE(sim.node(host).is_router);
  EXPECT_EQ(topo.hosts.size(), 1u);
  EXPECT_EQ(sim.node(host).interfaces.size(), 1u);
}

}  // namespace
}  // namespace cbt::netsim
