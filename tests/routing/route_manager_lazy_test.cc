// Lazy scoped-invalidation route manager: equivalence with a from-scratch
// recompute, warm-table bookkeeping, the LPM index, and the
// static-override liveness fix (docs/PROTOCOL.md "Unicast routing &
// invalidation model").
#include <gtest/gtest.h>

#include "common/random.h"
#include "netsim/topologies.h"
#include "routing/route_manager.h"

namespace cbt::routing {
namespace {

using netsim::MakeFigure1;
using netsim::MakeGrid;
using netsim::MakeLine;
using netsim::Simulator;
using netsim::Topology;

bool SameRoute(const std::optional<Route>& a, const std::optional<Route>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->vif == b->vif && a->next_hop == b->next_hop &&
         a->cost == b->cost && a->hop_count == b->hop_count &&
         a->delay == b->delay;
}

/// A square with a tie between the two r0->r3 paths (broken toward r1 by
/// lowest next-hop address): r0's shortest-path tree uses l01, l02 and
/// l13, but provably not l23 — the canonical warm-keep case.
struct Square {
  Simulator sim;
  NodeId r0, r1, r2, r3;
  SubnetId l01, l13, l02, l23;

  Square() {
    r0 = sim.AddNode("r0", true);
    r1 = sim.AddNode("r1", true);
    r2 = sim.AddNode("r2", true);
    r3 = sim.AddNode("r3", true);
    l01 = sim.Connect(r0, r1);
    l13 = sim.Connect(r1, r3);
    l02 = sim.Connect(r0, r2);
    l23 = sim.Connect(r2, r3);
  }
};

TEST(RouteManagerLazy, MatchesEagerUnderRandomChurn) {
  for (const std::uint64_t seed : {1u, 7u, 23u, 51u, 97u}) {
    Simulator sim;
    Topology topo = MakeGrid(sim, 4, 4);
    RouteManager lazy(sim);
    std::uint64_t fresh_tables = 0;
    Rng rng(seed);
    const std::size_t n = topo.routers.size();

    for (int step = 0; step < 150; ++step) {
      // 1-3 topology changes per batch, so the journal-batch path (several
      // epochs between queries) is exercised, not just single deltas.
      const int batch = 1 + static_cast<int>(rng.NextBelow(3));
      for (int c = 0; c < batch; ++c) {
        const NodeId node = topo.routers[rng.NextBelow(n)];
        switch (rng.NextBelow(3)) {
          case 0:
            sim.SetSubnetUp(
                SubnetId(static_cast<std::int32_t>(
                    rng.NextBelow(sim.subnet_count()))),
                rng.NextBool(0.6));
            break;
          case 1: {
            const auto& ifaces = sim.node(node).interfaces;
            sim.SetInterfaceUp(node,
                               static_cast<VifIndex>(
                                   rng.NextBelow(ifaces.size())),
                               rng.NextBool(0.6));
            break;
          }
          case 2:
            sim.SetNodeUp(node, rng.NextBool(0.8));
            break;
        }
      }
      for (int q = 0; q < 3; ++q) {
        const NodeId from = topo.routers[rng.NextBelow(n)];
        const NodeId to = topo.routers[rng.NextBelow(n)];
        const Ipv4Address dest = sim.PrimaryAddress(to);
        // A manager with no history computes from the live topology what
        // recomputing every table after every change would.
        RouteManager fresh(sim);
        ASSERT_TRUE(SameRoute(lazy.Lookup(from, dest),
                              fresh.Lookup(from, dest)))
            << "seed " << seed << " step " << step;
        ASSERT_EQ(lazy.Distance(from, to), fresh.Distance(from, to));
        ASSERT_EQ(lazy.PathDelay(from, to), fresh.PathDelay(from, to));
        ASSERT_EQ(lazy.Path(from, to), fresh.Path(from, to))
            << "seed " << seed << " step " << step;
        fresh_tables += fresh.stats().tables_computed;
      }
    }
    // The whole point: lazy must not do more Dijkstra work than
    // recomputing from scratch for every query.
    EXPECT_LE(lazy.stats().tables_computed, fresh_tables) << "seed " << seed;
  }
}

TEST(RouteManagerLazy, ScopedChangeKeepsUnaffectedTablesWarm) {
  Square sq;
  RouteManager routes(sq.sim);
  for (const NodeId r : {sq.r0, sq.r1, sq.r2, sq.r3}) {
    routes.Distance(r, sq.r0);  // warm all four tables
  }
  routes.ResetStats();

  // l23 is not on r0's shortest-path tree: its table must stay warm.
  sq.sim.SetSubnetUp(sq.l23, false);
  EXPECT_EQ(routes.Distance(sq.r0, sq.r3), 2.0);
  EXPECT_EQ(routes.stats().tables_computed, 0u);
  EXPECT_GE(routes.stats().tables_kept_warm, 1u);

  // r2 routed to r3 over l23: its table must recompute (now via r0, r1).
  EXPECT_EQ(routes.Distance(sq.r2, sq.r3), 3.0);
  EXPECT_EQ(routes.stats().tables_computed, 1u);
}

TEST(RouteManagerLazy, EpochChangeInvalidatesWithoutExplicitCall) {
  Square sq;
  RouteManager routes(sq.sim);
  EXPECT_EQ(routes.Distance(sq.r2, sq.r3), 1.0);
  sq.sim.SetSubnetUp(sq.l23, false);
  EXPECT_EQ(routes.Distance(sq.r2, sq.r3), 3.0);
  sq.sim.SetSubnetUp(sq.l23, true);
  EXPECT_EQ(routes.Distance(sq.r2, sq.r3), 1.0);
}

TEST(RouteManagerLazy, OnlyRecomputesQueriedSources) {
  Simulator sim;
  Topology topo = MakeGrid(sim, 4, 4);
  RouteManager routes(sim);
  for (const NodeId r : topo.routers) routes.Distance(r, topo.routers[0]);
  routes.ResetStats();

  // Down a corner router's stub LAN, then query a single source. Eager
  // recomputed all 16 tables here; lazy runs at most the one queried
  // Dijkstra (zero if the warm check proves the table unaffected).
  sim.SetSubnetUp(topo.router_lans.back(), false);
  routes.Lookup(topo.routers[0], sim.PrimaryAddress(topo.routers[5]));
  EXPECT_LE(routes.stats().tables_computed, 1u);
}

TEST(RouteManagerLazy, TableVersionStableWhileUnaffected) {
  Square sq;
  RouteManager routes(sq.sim);
  const std::uint64_t v0 = routes.TableVersion(sq.r0);
  EXPECT_EQ(routes.TableVersion(sq.r0), v0);  // repeated query: no motion

  sq.sim.SetSubnetUp(sq.l23, false);  // not on r0's tree
  EXPECT_EQ(routes.TableVersion(sq.r0), v0);

  sq.sim.SetSubnetUp(sq.l01, false);  // on r0's tree
  const std::uint64_t v1 = routes.TableVersion(sq.r0);
  EXPECT_GT(v1, v0);
}

// Regression: a static next-hop override (tunnel) must not be served while
// its vif or destination subnet is down — the computed route wins until
// the override's path revives.
TEST(RouteManagerLazy, OverrideSkippedWhileItsPathIsDown) {
  Simulator sim;
  Topology topo = MakeLine(sim, 3);
  RouteManager routes(sim);
  const NodeId r0 = topo.routers[0];
  const NodeId r1 = topo.routers[1];
  const NodeId r2 = topo.routers[2];
  const Ipv4Address dest = sim.PrimaryAddress(r2);
  const SubnetId dest_subnet = *routes.ResolveSubnet(dest);

  VifIndex lan_vif = kInvalidVif;
  for (const auto& iface : sim.node(r0).interfaces) {
    if (iface.subnet == topo.router_lans[0]) lan_vif = iface.vif;
  }
  ASSERT_NE(lan_vif, kInvalidVif);
  const Ipv4Address tunnel_peer(1, 2, 3, 4);
  routes.SetStaticNextHop(r0, dest_subnet, lan_vif, tunnel_peer);
  ASSERT_EQ(routes.Lookup(r0, dest)->next_hop, tunnel_peer);

  // Tunnel vif goes down: fall through to the computed route via r1.
  sim.SetInterfaceUp(r0, lan_vif, false);
  auto route = routes.Lookup(r0, dest);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(route->next_hop), r1);

  // Vif back up: the override revives (it survives recomputes).
  sim.SetInterfaceUp(r0, lan_vif, true);
  EXPECT_EQ(routes.Lookup(r0, dest)->next_hop, tunnel_peer);

  // Same flap at subnet granularity.
  sim.SetSubnetUp(topo.router_lans[0], false);
  route = routes.Lookup(r0, dest);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(route->next_hop), r1);
  sim.SetSubnetUp(topo.router_lans[0], true);
  EXPECT_EQ(routes.Lookup(r0, dest)->next_hop, tunnel_peer);

  // Destination subnet down: the computed route is nullopt, and the
  // override (whose egress vif is still live) must not outlive it.
  sim.SetSubnetUp(dest_subnet, false);
  EXPECT_FALSE(routes.Lookup(r0, dest).has_value());
  sim.SetSubnetUp(dest_subnet, true);
  EXPECT_EQ(routes.Lookup(r0, dest)->next_hop, tunnel_peer);
}

TEST(RouteManagerLazy, TieBreakSurvivesScopedInvalidation) {
  Simulator sim;
  const Topology topo = MakeFigure1(sim);
  RouteManager routes(sim);
  const Ipv4Address r4_addr = sim.PrimaryAddress(topo.node("R4"));
  auto route = routes.Lookup(topo.node("R6"), r4_addr);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(route->next_hop), topo.node("R2"));

  // Flap a stub LAN (scoped change) and re-query: the R2-vs-R5 tie must
  // still break toward the lower next-hop address.
  const SubnetId lan = topo.subnet("S8");
  sim.SetSubnetUp(lan, false);
  sim.SetSubnetUp(lan, true);
  route = routes.Lookup(topo.node("R6"), r4_addr);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(route->next_hop), topo.node("R2"));
}

TEST(RouteManagerLazy, HostsNeverTransitAfterChurn) {
  Simulator sim;
  const NodeId r0 = sim.AddNode("r0", true);
  const NodeId r1 = sim.AddNode("r1", true);
  const NodeId h = sim.AddNode("h", false);
  const SubnetId lan_a = sim.AddSubnet(
      "lanA", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  const SubnetId lan_b = sim.AddSubnet(
      "lanB", SubnetAddress::FromPrefix(Ipv4Address(10, 2, 0, 0), 16));
  sim.Attach(r0, lan_a);
  sim.Attach(h, lan_a);
  sim.Attach(h, lan_b);
  sim.Attach(r1, lan_b);
  RouteManager routes(sim);
  EXPECT_EQ(routes.Distance(r0, r1), RouteManager::kInfinity);

  // Host flaps are node-scoped changes; routers must still refuse to
  // route through it after the tables reconverge.
  sim.SetNodeUp(h, false);
  EXPECT_EQ(routes.Distance(r0, r1), RouteManager::kInfinity);
  sim.SetNodeUp(h, true);
  EXPECT_EQ(routes.Distance(r0, r1), RouteManager::kInfinity);
}

TEST(RouteManagerLazy, PathReconstructsAfterPartialFailure) {
  Square sq;
  RouteManager routes(sq.sim);
  // Tie toward r1 first; then kill that path and require the detour,
  // with predecessor[] yielding the full node sequence both times.
  std::vector<NodeId> want{sq.r0, sq.r1, sq.r3};
  EXPECT_EQ(routes.Path(sq.r0, sq.r3), want);

  sq.sim.SetSubnetUp(sq.l01, false);
  want = {sq.r0, sq.r2, sq.r3};
  EXPECT_EQ(routes.Path(sq.r0, sq.r3), want);
  // r1 stays reachable the long way round; predecessor[] must chain
  // through the surviving edges only.
  want = {sq.r0, sq.r2, sq.r3, sq.r1};
  EXPECT_EQ(routes.Path(sq.r0, sq.r1), want);
}

/// The per-call scan the LPM index replaces: the longest matching mask
/// wins, the lowest subnet id among equal prefixes.
std::optional<SubnetId> ResolveSubnetLinear(const Simulator& sim,
                                            Ipv4Address dest) {
  std::optional<SubnetId> best;
  std::uint32_t best_mask = 0;
  for (std::size_t si = 0; si < sim.subnet_count(); ++si) {
    const SubnetId id(static_cast<std::int32_t>(si));
    const SubnetAddress& a = sim.subnet(id).address;
    if (a.Contains(dest) && (!best || a.mask() > best_mask)) {
      best = id;
      best_mask = a.mask();
    }
  }
  return best;
}

TEST(RouteManagerLazy, LpmIndexMatchesLinearScan) {
  Simulator sim;
  const NodeId r0 = sim.AddNode("r0", true);
  // Nested prefixes: the /24 inside the /16 must win for its addresses.
  const SubnetId wide = sim.AddSubnet(
      "wide", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  const SubnetId narrow = sim.AddSubnet(
      "narrow", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 7, 0), 24));
  const SubnetId other = sim.AddSubnet(
      "other", SubnetAddress::FromPrefix(Ipv4Address(10, 2, 0, 0), 16));
  sim.Attach(r0, wide);
  sim.Attach(r0, narrow);
  sim.Attach(r0, other);

  RouteManager indexed(sim);

  const Ipv4Address probes[] = {
      Ipv4Address(10, 1, 7, 9),    // inside the /24
      Ipv4Address(10, 1, 8, 9),    // /16 only
      Ipv4Address(10, 2, 200, 1),  // other /16
      Ipv4Address(172, 16, 0, 1),  // no match
  };
  for (const Ipv4Address probe : probes) {
    EXPECT_EQ(indexed.ResolveSubnet(probe), ResolveSubnetLinear(sim, probe))
        << probe.bits();
  }
  EXPECT_EQ(indexed.ResolveSubnet(Ipv4Address(10, 1, 7, 9)), narrow);
  EXPECT_EQ(indexed.ResolveSubnet(Ipv4Address(10, 2, 0, 5)), other);
  EXPECT_EQ(indexed.ResolveSubnet(Ipv4Address(172, 16, 0, 1)), std::nullopt);

  // Re-resolving the same addresses hits the direct-mapped cache, for
  // hits and misses alike.
  const std::uint64_t hits_before = indexed.stats().lpm_cache_hits;
  indexed.ResolveSubnet(Ipv4Address(10, 1, 7, 9));
  indexed.ResolveSubnet(Ipv4Address(172, 16, 0, 1));
  EXPECT_EQ(indexed.stats().lpm_cache_hits, hits_before + 2);
}

TEST(RouteManagerLazy, LpmIndexRebuildsWhenSubnetsAppear) {
  Simulator sim;
  const NodeId r0 = sim.AddNode("r0", true);
  const SubnetId first = sim.AddSubnet(
      "first", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  sim.Attach(r0, first);
  RouteManager routes(sim);
  EXPECT_EQ(routes.ResolveSubnet(Ipv4Address(10, 9, 0, 1)), std::nullopt);

  const SubnetId second = sim.AddSubnet(
      "second", SubnetAddress::FromPrefix(Ipv4Address(10, 9, 0, 0), 16));
  sim.Attach(r0, second);
  EXPECT_EQ(routes.ResolveSubnet(Ipv4Address(10, 9, 0, 1)), second);
  EXPECT_GE(routes.stats().lpm_index_rebuilds, 2u);
}

}  // namespace
}  // namespace cbt::routing
