#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cbt/core_selection.h"
#include "cbt/group_directory.h"
#include "netsim/topologies.h"
#include "routing/route_manager.h"

namespace cbt::core {
namespace {

using core_selection::MakeStrategy;
using core_selection::Placement;
using core_selection::PlacementInput;
using netsim::MakeLine;
using netsim::MakeStar;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 4, 4, 4);

TEST(GroupDirectory, SetLookupRemove) {
  GroupDirectory dir;
  EXPECT_FALSE(dir.Knows(kGroup));
  EXPECT_TRUE(dir.CoresFor(kGroup).empty());
  EXPECT_FALSE(dir.PrimaryCore(kGroup).has_value());

  dir.SetGroup(kGroup, {Ipv4Address(10, 1, 0, 1), Ipv4Address(10, 2, 0, 1)});
  EXPECT_TRUE(dir.Knows(kGroup));
  EXPECT_EQ(dir.CoresFor(kGroup).size(), 2u);
  EXPECT_EQ(*dir.PrimaryCore(kGroup), Ipv4Address(10, 1, 0, 1));
  EXPECT_EQ(dir.Groups().size(), 1u);

  // Re-registration replaces.
  dir.SetGroup(kGroup, {Ipv4Address(10, 3, 0, 1)});
  EXPECT_EQ(*dir.PrimaryCore(kGroup), Ipv4Address(10, 3, 0, 1));

  dir.RemoveGroup(kGroup);
  EXPECT_FALSE(dir.Knows(kGroup));
}

TEST(GroupDirectory, AssignmentsMapMemberLansToCoreIndices) {
  GroupDirectory dir;
  dir.SetGroup(kGroup, {Ipv4Address(10, 1, 0, 1), Ipv4Address(10, 2, 0, 1)});
  EXPECT_FALSE(dir.HasAssignments(kGroup));
  EXPECT_EQ(dir.AssignedIndex(kGroup, SubnetId(7)), 0u);

  dir.SetAssignments(kGroup, {{SubnetId(7), 1}, {SubnetId(8), 5}});
  EXPECT_TRUE(dir.HasAssignments(kGroup));
  EXPECT_EQ(dir.AssignedIndex(kGroup, SubnetId(7)), 1u);
  // Out-of-range indices clamp to the last listed core; unknown LANs
  // default to the primary.
  EXPECT_EQ(dir.AssignedIndex(kGroup, SubnetId(8)), 1u);
  EXPECT_EQ(dir.AssignedIndex(kGroup, SubnetId(9)), 0u);

  dir.RemoveGroup(kGroup);
  EXPECT_FALSE(dir.HasAssignments(kGroup));
}

TEST(CoreSelection, RegistryResolvesEveryNameAndRejectsUnknowns) {
  for (const std::string_view name : core_selection::StrategyNames()) {
    const auto strategy = MakeStrategy(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(strategy->name(), name);
  }
  EXPECT_EQ(MakeStrategy("no-such-strategy"), nullptr);
}

TEST(CoreSelection, RandomCoresAreDistinctRouters) {
  Simulator sim;
  Topology topo = MakeLine(sim, 8);
  Rng rng(5);
  PlacementInput in;
  in.routers = topo.routers;
  in.rng = &rng;
  const auto cores = MakeStrategy("random")->Place(in, 3).cores;
  EXPECT_EQ(cores.size(), 3u);
  EXPECT_NE(cores[0], cores[1]);
  EXPECT_NE(cores[1], cores[2]);
  EXPECT_NE(cores[0], cores[2]);
}

TEST(CoreSelection, HighestDegreePicksTheHub) {
  Simulator sim;
  Topology topo = MakeStar(sim, 6);
  PlacementInput in;
  in.sim = &sim;
  in.routers = topo.routers;
  const auto cores = MakeStrategy("degree")->Place(in, 1).cores;
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0], topo.routers[0]) << "the hub has the most interfaces";
}

TEST(CoreSelection, CentreOfALineIsTheMiddle) {
  Simulator sim;
  Topology topo = MakeLine(sim, 7);
  routing::RouteManager routes(sim);
  PlacementInput in;
  in.routes = &routes;
  in.routers = topo.routers;
  const auto cores = MakeStrategy("centre")->Place(in, 1).cores;
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0], topo.routers[3]) << "line centre minimizes eccentricity";
}

TEST(CoreSelection, DelayCentreHonoursLinkDelays) {
  Simulator sim;
  // Line with one very slow link at the right end: the delay centre
  // shifts right of the hop centre to balance the slow edge.
  const NodeId r0 = sim.AddNode("r0", true);
  const NodeId r1 = sim.AddNode("r1", true);
  const NodeId r2 = sim.AddNode("r2", true);
  const NodeId r3 = sim.AddNode("r3", true);
  sim.Connect(r0, r1, 1 * kMillisecond);
  sim.Connect(r1, r2, 1 * kMillisecond);
  sim.Connect(r2, r3, 50 * kMillisecond);
  routing::RouteManager routes(sim);
  PlacementInput in;
  in.routes = &routes;
  in.routers = {r0, r1, r2, r3};
  const auto delay_centre = MakeStrategy("delay-centre")->Place(in, 1).cores;
  EXPECT_EQ(delay_centre[0], r2)
      << "r2 splits the dominant 50ms edge from the cheap chain";
}

TEST(CoreSelection, FarthestPointSpreadsMultipleCores) {
  Simulator sim;
  Topology topo = MakeLine(sim, 9);
  routing::RouteManager routes(sim);
  PlacementInput in;
  in.routes = &routes;
  in.routers = topo.routers;
  const auto cores = MakeStrategy("centre")->Place(in, 2).cores;
  ASSERT_EQ(cores.size(), 2u);
  // Second core is far from the first (an end of the line).
  const double spread = routes.Distance(cores[0], cores[1]);
  EXPECT_GE(spread, 3.0);
}

TEST(CoreSelection, GroupHashIsDeterministicAndCovers) {
  Simulator sim;
  Topology topo = MakeLine(sim, 5);
  PlacementInput in;
  in.routers = topo.routers;
  in.group = kGroup;
  // Same group → same rotation; different groups spread over candidates.
  const auto hash = MakeStrategy("hash");
  const auto a1 = hash->Place(in, topo.routers.size()).cores;
  const auto a2 = hash->Place(in, topo.routers.size()).cores;
  EXPECT_EQ(a1, a2);
  std::set<NodeId> firsts;
  for (int g = 0; g < 64; ++g) {
    PlacementInput gi = in;
    gi.group = Ipv4Address(239, 0, 0, static_cast<std::uint8_t>(g));
    firsts.insert(hash->Place(gi, 1).cores.front());
  }
  EXPECT_GE(firsts.size(), 3u) << "hash should spread groups over cores";
  // A full-k rotation preserves the complete candidate set.
  std::vector<NodeId> sorted = a1;
  std::sort(sorted.begin(), sorted.end());
  std::vector<NodeId> expected = topo.routers;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted, expected);
}

TEST(CoreSelection, AssignNearestPartitionsByDelay) {
  Simulator sim;
  Topology topo = MakeLine(sim, 9);
  routing::RouteManager routes(sim);
  const std::vector<NodeId> cores = {topo.routers[0], topo.routers[8]};
  const std::vector<NodeId> members = {topo.routers[1], topo.routers[2],
                                       topo.routers[6], topo.routers[7]};
  const auto assignment = core_selection::AssignNearest(routes, cores, members);
  ASSERT_EQ(assignment.size(), members.size());
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 0u);
  EXPECT_EQ(assignment[2], 1u);
  EXPECT_EQ(assignment[3], 1u);
}

TEST(CoreSelection, LocalityClustersMembersAroundTheirCore) {
  Simulator sim;
  Topology topo = MakeLine(sim, 10);
  routing::RouteManager routes(sim);
  PlacementInput in;
  in.routes = &routes;
  in.routers = topo.routers;
  // Two tight member groups at the line's ends.
  in.member_routers = {topo.routers[0], topo.routers[1], topo.routers[2],
                       topo.routers[7], topo.routers[8], topo.routers[9]};
  const Placement placement = MakeStrategy("locality")->Place(in, 2);
  ASSERT_EQ(placement.cores.size(), 2u);
  ASSERT_EQ(placement.assignment.size(), in.member_routers.size());
  // Each end-cluster lands on one shared core, and the two differ.
  EXPECT_EQ(placement.assignment[0], placement.assignment[1]);
  EXPECT_EQ(placement.assignment[1], placement.assignment[2]);
  EXPECT_EQ(placement.assignment[3], placement.assignment[4]);
  EXPECT_EQ(placement.assignment[4], placement.assignment[5]);
  EXPECT_NE(placement.assignment[0], placement.assignment[3]);
}

}  // namespace
}  // namespace cbt::core
