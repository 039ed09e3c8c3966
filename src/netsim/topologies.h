// Topology construction helpers.
//
// Includes faithful reconstructions of the spec's example networks:
//  * Figure 1 — the 12-router / 15-subnet internetwork every protocol
//    walkthrough in the spec uses (joins, proxy-ack, teardown, forwarding);
//  * Figure 5 — the loop topology used to exercise REJOIN loop detection;
// plus parameterized generators (line, star, grid, binary tree, Waxman
// random graph) for the quantitative experiments.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "netsim/simulator.h"

namespace cbt::netsim {

/// A constructed topology: name→id maps plus role lists.
struct Topology {
  std::map<std::string, NodeId> nodes;
  std::map<std::string, SubnetId> subnets;
  std::vector<NodeId> routers;
  std::vector<NodeId> hosts;
  /// One stub LAN per router (parallel to `routers`) where member hosts can
  /// be attached; empty for topologies that define their own LANs.
  std::vector<SubnetId> router_lans;

  NodeId node(const std::string& name) const { return nodes.at(name); }
  SubnetId subnet(const std::string& name) const { return subnets.at(name); }
};

/// Attaches a new host to `lan` and returns its id.
NodeId AttachHost(Simulator& sim, Topology& topo, SubnetId lan,
                  const std::string& name);

/// `prefix` followed by `n` in decimal ("R" and 7 give "R7"): the names
/// of numbered routers, LANs and hosts. Appends in place, because GCC 12
/// reports a false -Wrestrict on `"R" + std::to_string(n)`.
template <typename Int>
std::string Numbered(std::string_view prefix, Int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

/// The spec's Figure 1 internetwork.
///
/// Routers R1..R12, member hosts A..K, subnets S1..S15 wired so that every
/// protocol narrative in sections 2.5-2.7 and 5 holds:
///  * R1 is the only router on S1 (host A) and S3 (host C);
///  * S4 (host B) has routers R6 (lowest address, hence IGMP querier and
///    D-DR), R2 and R5; R2 and R5 both reach core R4 via R3 on S2, with R2
///    lower-addressed so it wins tie-breaks — producing the proxy-ack
///    scenario of section 2.6;
///  * R4 is the primary-core site with member LANs S5, S6, S7;
///  * R7 serves S9 (host E; the teardown example), R8 serves S10 (host G,
///    the data-forwarding example) and S14, R9 serves memberless S12,
///    R10 serves S13 and S15, R12 hangs off R8 next to R11 on S11.
Topology MakeFigure1(Simulator& sim);

/// The spec's Figure 5 loop topology: ring R3-R4-R5-R6-R3 with R1 (core)
/// reached through R2; static route overrides in the test create the
/// transient loop.
Topology MakeFigure5Loop(Simulator& sim);

/// Chain of `n` routers, each with a stub LAN.
Topology MakeLine(Simulator& sim, int n,
                  SimDuration link_delay = kMillisecond);

/// Hub router with `n` spokes, each spoke with a stub LAN.
Topology MakeStar(Simulator& sim, int n,
                  SimDuration link_delay = kMillisecond);

/// width x height grid of routers, each with a stub LAN.
Topology MakeGrid(Simulator& sim, int width, int height,
                  SimDuration link_delay = kMillisecond);

/// Complete binary tree of routers with `depth` levels (root = level 0).
Topology MakeBinaryTree(Simulator& sim, int depth,
                        SimDuration link_delay = kMillisecond);

struct WaxmanParams {
  int n = 100;
  double alpha = 0.25;  // edge density
  double beta = 0.2;    // locality: smaller = shorter edges only
  std::uint64_t seed = 42;
  /// Link delay scales with Euclidean distance on the unit square:
  /// delay = base + distance * spread.
  SimDuration base_delay = kMillisecond;
  SimDuration delay_spread = 9 * kMillisecond;
};

/// Waxman random graph (the topology model used in the CBT-era multicast
/// evaluations), made connected by stitching a random spanning chain.
Topology MakeWaxman(Simulator& sim, const WaxmanParams& params);

struct TransitStubParams {
  /// Transit core: a small, densely-meshed backbone with slow links.
  int transit_nodes = 6;
  /// Stub domains hanging off random transit routers, each a short chain
  /// of access routers with fast links.
  int stub_domains = 8;
  int stub_size = 3;
  std::uint64_t seed = 42;
  SimDuration transit_delay = 10 * kMillisecond;
  SimDuration stub_delay = 1 * kMillisecond;
};

/// Transit-stub internetwork (the hierarchy the CBT-era evaluations also
/// used): member LANs live in the stubs; cores are typically placed in
/// the transit backbone.
Topology MakeTransitStub(Simulator& sim, const TransitStubParams& params);

}  // namespace cbt::netsim
