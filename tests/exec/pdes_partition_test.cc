// Property tests for the PDES topology partitioner (exec/pdes/partition).
//
// The partitioner is a pure function of the topology and the requested
// region count, so every property below is checked over a seeded sweep
// of generated topologies x region counts. The properties are exactly
// the ones the conservative runtime's correctness rests on:
//   * regions cover every node exactly once (disjoint, exhaustive);
//   * every region is non-empty and region ids are compact [0, regions);
//   * every cut subnet's delay >= the derived lookahead, and the
//     lookahead equals the minimum cut delay (no slack left behind);
//   * zero-delay subnets are never cut (their endpoints are contracted
//     into one region), so lookahead > 0 always holds;
//   * degenerate inputs (one region, more regions than routers,
//     disconnected graphs, empty simulators) produce valid partitions.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "exec/pdes/partition.h"
#include "netsim/simulator.h"
#include "netsim/topologies.h"

namespace {

using namespace cbt;  // NOLINT
using exec::pdes::ExtendPartition;
using exec::pdes::MakePartition;
using exec::pdes::Partition;

/// Checks every structural invariant a Partition promises. Returns the
/// partition so tests can assert topology-specific extras on top.
Partition CheckPartition(const netsim::Simulator& sim, int requested) {
  const Partition part = MakePartition(sim, requested);

  // Region count: >= 1, <= max(requested, 1), and never more than the
  // node count (each region must be non-empty).
  EXPECT_GE(part.regions, 1);
  EXPECT_LE(part.regions, std::max(requested, 1));
  if (sim.node_count() > 0) {
    EXPECT_LE(static_cast<std::size_t>(part.regions), sim.node_count());
  }

  // Exact cover: every node has exactly one region id in range.
  EXPECT_EQ(part.region_of_node.size(), sim.node_count());
  std::vector<int> population(static_cast<std::size_t>(part.regions), 0);
  for (const int r : part.region_of_node) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, part.regions);
    if (r >= 0 && r < part.regions) ++population[static_cast<std::size_t>(r)];
  }
  // Compact ids: every region non-empty (when there are nodes at all).
  if (sim.node_count() > 0) {
    for (int r = 0; r < part.regions; ++r) {
      EXPECT_GT(population[static_cast<std::size_t>(r)], 0)
          << "empty region " << r;
    }
  }

  // Cut detection matches the attachment spans, cut delays bound the
  // lookahead, and the lookahead is exactly the minimum cut delay.
  EXPECT_EQ(part.subnet_cut.size(), sim.subnet_count());
  EXPECT_EQ(part.owner_of_subnet.size(), sim.subnet_count());
  SimDuration min_cut = Partition::kInfiniteLookahead;
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const auto& subnet = sim.subnet(SubnetId(static_cast<std::uint32_t>(s)));
    bool spans = false;
    for (std::size_t i = 1; i < subnet.attachments.size(); ++i) {
      const auto a = part.region_of_node[subnet.attachments[0].first.value()];
      const auto b = part.region_of_node[subnet.attachments[i].first.value()];
      if (a != b) spans = true;
    }
    EXPECT_EQ(part.subnet_cut[s], spans) << "subnet " << s;
    if (spans) {
      EXPECT_GT(subnet.delay, 0) << "zero-delay subnet " << s << " was cut";
      EXPECT_GE(subnet.delay, part.lookahead) << "subnet " << s;
      min_cut = std::min(min_cut, subnet.delay);
    }
    if (!subnet.attachments.empty()) {
      EXPECT_EQ(part.owner_of_subnet[s],
                part.region_of_node[subnet.attachments[0].first.value()]);
    }
  }
  EXPECT_EQ(part.lookahead, min_cut);
  EXPECT_GT(part.lookahead, 0);
  return part;
}

TEST(PdesPartitionTest, SingleRegionHasNoCutsAndInfiniteLookahead) {
  netsim::Simulator sim(1);
  netsim::MakeGrid(sim, 4, 4);
  const Partition part = CheckPartition(sim, 1);
  EXPECT_EQ(part.regions, 1);
  EXPECT_EQ(part.lookahead, Partition::kInfiniteLookahead);
  EXPECT_TRUE(std::none_of(part.subnet_cut.begin(), part.subnet_cut.end(),
                           [](bool cut) { return cut; }));
}

TEST(PdesPartitionTest, RequestedBelowOneClampsToOne) {
  netsim::Simulator sim(1);
  netsim::MakeLine(sim, 5);
  EXPECT_EQ(CheckPartition(sim, 0).regions, 1);
  EXPECT_EQ(CheckPartition(sim, -3).regions, 1);
}

TEST(PdesPartitionTest, MoreRegionsThanNodesCompactsToNodeCount) {
  netsim::Simulator sim(1);
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  sim.Connect(a, b, 2 * kMillisecond);
  const Partition part = CheckPartition(sim, 64);
  EXPECT_LE(part.regions, 2);
}

TEST(PdesPartitionTest, EmptySimulatorYieldsOneEmptyRegion) {
  netsim::Simulator sim(1);
  const Partition part = MakePartition(sim, 4);
  EXPECT_EQ(part.regions, 1);
  EXPECT_TRUE(part.region_of_node.empty());
  EXPECT_EQ(part.lookahead, Partition::kInfiniteLookahead);
}

TEST(PdesPartitionTest, ZeroDelayPairsShareARegion) {
  netsim::Simulator sim(1);
  // a-b joined by a zero-delay segment, b-c and c-d by positive delays:
  // a and b must be fused whatever the region count.
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const NodeId c = sim.AddNode("c", true);
  const NodeId d = sim.AddNode("d", true);
  sim.Connect(a, b, 0);
  sim.Connect(b, c, 3 * kMillisecond);
  sim.Connect(c, d, 5 * kMillisecond);
  for (const int requested : {1, 2, 3, 4}) {
    const Partition part = CheckPartition(sim, requested);
    EXPECT_EQ(part.region_of_node[a.value()], part.region_of_node[b.value()])
        << "requested=" << requested;
  }
}

TEST(PdesPartitionTest, DisconnectedComponentsAreAllAssigned) {
  netsim::Simulator sim(1);
  // Two disjoint 3-chains plus an isolated node: still an exact cover.
  std::vector<NodeId> nodes;
  for (int i = 0; i < 7; ++i) {
    nodes.push_back(sim.AddNode(netsim::Numbered("n", i), true));
  }
  sim.Connect(nodes[0], nodes[1], kMillisecond);
  sim.Connect(nodes[1], nodes[2], kMillisecond);
  sim.Connect(nodes[3], nodes[4], 2 * kMillisecond);
  sim.Connect(nodes[4], nodes[5], 2 * kMillisecond);
  for (const int requested : {1, 2, 3, 7}) {
    CheckPartition(sim, requested);
  }
}

TEST(PdesPartitionTest, LookaheadIsMinimumCutDelayOnALine) {
  netsim::Simulator sim(1);
  // Line with increasing delays: whichever links end up cut, the
  // lookahead must equal the smallest of them (verified structurally by
  // CheckPartition); with 2 regions grown by BFS from the low end, the
  // cut should land mid-line, so lookahead > the first link's delay is
  // not guaranteed — but it must be one of the actual link delays.
  std::vector<NodeId> nodes;
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(sim.AddNode(netsim::Numbered("n", i), true));
  }
  std::vector<SimDuration> delays;
  for (int i = 0; i + 1 < 8; ++i) {
    const SimDuration d = (i + 1) * kMillisecond;
    delays.push_back(d);
    sim.Connect(nodes[static_cast<std::size_t>(i)],
                nodes[static_cast<std::size_t>(i + 1)], d);
  }
  const Partition part = CheckPartition(sim, 2);
  EXPECT_NE(part.lookahead, Partition::kInfiniteLookahead);
  EXPECT_TRUE(std::find(delays.begin(), delays.end(), part.lookahead) !=
              delays.end());
}

TEST(PdesPartitionTest, DeterministicAcrossCalls) {
  for (const std::uint64_t seed : {2ULL, 13ULL, 31ULL}) {
    netsim::Simulator sim_a(seed);
    netsim::Simulator sim_b(seed);
    netsim::WaxmanParams params;
    params.n = 24;
    params.seed = seed;
    netsim::MakeWaxman(sim_a, params);
    netsim::MakeWaxman(sim_b, params);
    const Partition pa = MakePartition(sim_a, 4);
    const Partition pb = MakePartition(sim_b, 4);
    EXPECT_EQ(pa.regions, pb.regions);
    EXPECT_EQ(pa.region_of_node, pb.region_of_node);
    EXPECT_EQ(pa.lookahead, pb.lookahead);
  }
}

TEST(PdesPartitionTest, SeededTopologySweepHoldsAllInvariants) {
  for (const std::uint64_t seed : {2ULL, 13ULL, 31ULL, 47ULL, 71ULL}) {
    for (const int requested : {1, 2, 3, 4, 8, 64}) {
      {
        netsim::Simulator sim(seed);
        netsim::WaxmanParams params;
        params.n = 20;
        params.seed = seed;
        netsim::MakeWaxman(sim, params);
        CheckPartition(sim, requested);
      }
      {
        netsim::Simulator sim(seed);
        netsim::MakeGrid(sim, 5, 4);
        CheckPartition(sim, requested);
      }
      {
        netsim::Simulator sim(seed);
        netsim::MakeFigure1(sim);
        CheckPartition(sim, requested);
      }
    }
  }
}

TEST(PdesPartitionTest, ExtendAssignsLateNodesToTheirLanOwner) {
  netsim::Simulator sim(1);
  netsim::Topology topo = netsim::MakeLine(sim, 6);
  Partition part = MakePartition(sim, 3);
  const std::vector<bool> cut_before = part.subnet_cut;
  const SimDuration lookahead_before = part.lookahead;

  // Attach a host to an existing stub LAN: it must inherit the LAN's
  // owner region so the subnet never becomes cut.
  const SubnetId lan = topo.router_lans[4];
  const NodeId host = netsim::AttachHost(sim, topo, lan, "late");
  // A node with no interfaces yet falls back to region 0.
  const NodeId floater = sim.AddNode("floater", false);
  ExtendPartition(part, sim);

  ASSERT_EQ(part.region_of_node.size(), sim.node_count());
  EXPECT_EQ(part.region_of_node[host.value()],
            part.owner_of_subnet[lan.value()]);
  EXPECT_EQ(part.region_of_node[floater.value()], 0);
  // The cut set and lookahead are untouched by late attachments.
  EXPECT_EQ(part.subnet_cut, cut_before);
  EXPECT_EQ(part.lookahead, lookahead_before);
}

}  // namespace
