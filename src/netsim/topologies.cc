#include "netsim/topologies.h"

#include <cassert>
#include <cmath>

namespace cbt::netsim {
namespace {

SubnetAddress LanPrefix(int k) {
  // S<k> = 10.<k>.0.0/16
  return SubnetAddress::FromPrefix(
      Ipv4Address(10, static_cast<std::uint8_t>(k), 0, 0), 16);
}

NodeId AddRouter(Simulator& sim, Topology& topo, const std::string& name) {
  const NodeId id = sim.AddNode(name, /*is_router=*/true);
  topo.nodes[name] = id;
  topo.routers.push_back(id);
  return id;
}

SubnetId AddLan(Simulator& sim, Topology& topo, const std::string& name,
                int prefix_index, SimDuration delay = kMillisecond) {
  const SubnetId id = sim.AddSubnet(name, LanPrefix(prefix_index), delay);
  topo.subnets[name] = id;
  return id;
}

/// Adds a per-router stub LAN so experiments can attach member hosts.
void AddStubLans(Simulator& sim, Topology& topo, int first_prefix) {
  for (std::size_t i = 0; i < topo.routers.size(); ++i) {
    const std::string name = "lan-" + sim.node(topo.routers[i]).name;
    // 172.16.0.0/12 space, /24 per router LAN, to stay clear of 10/8 LANs.
    const SubnetAddress prefix = SubnetAddress::FromPrefix(
        Ipv4Address((172u << 24) | (16u << 16) |
                    (static_cast<std::uint32_t>(first_prefix + (int)i) << 8)),
        24);
    const SubnetId lan = sim.AddSubnet(name, prefix, kMillisecond);
    topo.subnets[name] = lan;
    sim.Attach(topo.routers[i], lan);
    topo.router_lans.push_back(lan);
  }
}

}  // namespace

NodeId AttachHost(Simulator& sim, Topology& topo, SubnetId lan,
                  const std::string& name) {
  const NodeId id = sim.AddNode(name, /*is_router=*/false);
  topo.nodes[name] = id;
  topo.hosts.push_back(id);
  sim.Attach(id, lan);
  return id;
}

Topology MakeFigure1(Simulator& sim) {
  Topology topo;

  // Routers.
  for (int i = 1; i <= 12; ++i) AddRouter(sim, topo, Numbered("R", i));
  const auto R = [&](int i) { return topo.node(Numbered("R", i)); };

  // Member LANs S1..S15 (S2 and S8 are transit/stub; addresses 10.k/16).
  for (int k = 1; k <= 15; ++k) {
    AddLan(sim, topo, Numbered("S", k), k);
  }
  const auto S = [&](int k) { return topo.subnet(Numbered("S", k)); };

  // --- Router attachments (order fixes addresses; comments note hosts). ---
  // S1: A + R1 (R1 the only CBT router — section 2.5 first join).
  sim.Attach(R(1), S(1));
  // S3: C + R1.
  sim.Attach(R(1), S(3));
  // S4: B + R6/R2/R5. R6 gets the lowest address so it is IGMP querier and
  // hence D-DR (section 2.6 narrative); R2 < R5 so R2 wins the next-hop
  // tie toward R3.
  sim.AttachWithHostPart(R(6), S(4), 1);
  sim.AttachWithHostPart(R(2), S(4), 2);
  sim.AttachWithHostPart(R(5), S(4), 3);
  // S2: transit LAN joining R2, R5 and R3.
  sim.AttachWithHostPart(R(2), S(2), 1);
  sim.AttachWithHostPart(R(5), S(2), 2);
  sim.AttachWithHostPart(R(3), S(2), 3);
  // S8: stub LAN on R6 (keeps R6's only path to R4 via S4, forcing the
  // same-subnet first hop that produces the proxy-ack).
  sim.Attach(R(6), S(8));
  // R1-R3 point-to-point: R1's best next-hop to core R4 is R3.
  topo.subnets["R1-R3"] = sim.Connect(R(1), R(3));
  // R3-R4 point-to-point: final hop of the S1 join.
  topo.subnets["R3-R4"] = sim.Connect(R(3), R(4));
  // R4's member LANs (section 5: all have member presence).
  sim.Attach(R(4), S(5));
  sim.Attach(R(4), S(6));
  sim.Attach(R(4), S(7));
  // R4-R7, R7's member LAN S9 (host E; the -02 teardown example).
  topo.subnets["R4-R7"] = sim.Connect(R(4), R(7));
  sim.Attach(R(7), S(9));
  // R4-R8; R8 serves S10 (host G, the forwarding example) and S14.
  topo.subnets["R4-R8"] = sim.Connect(R(4), R(8));
  sim.Attach(R(8), S(10));
  sim.Attach(R(8), S(14));
  // R8-R9; R9 serves memberless S12 (it must not multicast there).
  topo.subnets["R8-R9"] = sim.Connect(R(8), R(9));
  sim.Attach(R(9), S(12));
  // R9-R10; R10 serves S13 (host H) and S15 (host J).
  topo.subnets["R9-R10"] = sim.Connect(R(9), R(10));
  sim.Attach(R(10), S(13));
  sim.Attach(R(10), S(15));
  // R8-R12; R12 and R11 share stub LAN S11.
  topo.subnets["R8-R12"] = sim.Connect(R(8), R(12));
  sim.Attach(R(12), S(11));
  sim.Attach(R(11), S(11));

  // --- Member hosts (letters per the spec narrative). ---
  AttachHost(sim, topo, S(1), "A");
  AttachHost(sim, topo, S(4), "B");
  AttachHost(sim, topo, S(3), "C");
  AttachHost(sim, topo, S(5), "D");
  AttachHost(sim, topo, S(9), "E");
  AttachHost(sim, topo, S(6), "F");
  AttachHost(sim, topo, S(10), "G");
  AttachHost(sim, topo, S(13), "H");
  AttachHost(sim, topo, S(7), "I");
  AttachHost(sim, topo, S(15), "J");
  AttachHost(sim, topo, S(14), "K");
  // The section 5 walkthrough has R12 as a child of R8, which requires
  // member presence behind R12; the draft's garbled figure does not name
  // the host, so we call it L (on S11, where R12 is the lowest-addressed
  // router and hence D-DR).
  AttachHost(sim, topo, S(11), "L");

  return topo;
}

Topology MakeFigure5Loop(Simulator& sim) {
  Topology topo;
  for (int i = 1; i <= 6; ++i) AddRouter(sim, topo, Numbered("R", i));
  const auto R = [&](int i) { return topo.node(Numbered("R", i)); };

  topo.subnets["R1-R2"] = sim.Connect(R(1), R(2));
  topo.subnets["R2-R3"] = sim.Connect(R(2), R(3));
  topo.subnets["R3-R4"] = sim.Connect(R(3), R(4));
  topo.subnets["R4-R5"] = sim.Connect(R(4), R(5));
  topo.subnets["R5-R6"] = sim.Connect(R(5), R(6));
  topo.subnets["R6-R3"] = sim.Connect(R(6), R(3));

  AddStubLans(sim, topo, 0);
  return topo;
}

Topology MakeLine(Simulator& sim, int n, SimDuration link_delay) {
  assert(n >= 1);
  Topology topo;
  for (int i = 0; i < n; ++i) AddRouter(sim, topo, Numbered("R", i));
  for (int i = 0; i + 1 < n; ++i) {
    topo.subnets["link" + std::to_string(i)] =
        sim.Connect(topo.routers[(std::size_t)i], topo.routers[(std::size_t)i + 1],
                    link_delay);
  }
  AddStubLans(sim, topo, 0);
  return topo;
}

Topology MakeStar(Simulator& sim, int n, SimDuration link_delay) {
  assert(n >= 1);
  Topology topo;
  AddRouter(sim, topo, "hub");
  for (int i = 0; i < n; ++i) {
    const NodeId spoke = AddRouter(sim, topo, Numbered("spoke", i));
    topo.subnets["link" + std::to_string(i)] =
        sim.Connect(topo.routers[0], spoke, link_delay);
  }
  AddStubLans(sim, topo, 0);
  return topo;
}

Topology MakeGrid(Simulator& sim, int width, int height,
                  SimDuration link_delay) {
  assert(width >= 1 && height >= 1);
  Topology topo;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      AddRouter(sim, topo, Numbered(Numbered("R", x) + "_", y));
    }
  }
  const auto at = [&](int x, int y) {
    return topo.routers[static_cast<std::size_t>(y * width + x)];
  };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (x + 1 < width) sim.Connect(at(x, y), at(x + 1, y), link_delay);
      if (y + 1 < height) sim.Connect(at(x, y), at(x, y + 1), link_delay);
    }
  }
  AddStubLans(sim, topo, 0);
  return topo;
}

Topology MakeBinaryTree(Simulator& sim, int depth, SimDuration link_delay) {
  assert(depth >= 1);
  Topology topo;
  const int count = (1 << depth) - 1;
  for (int i = 0; i < count; ++i) AddRouter(sim, topo, Numbered("R", i));
  for (int i = 1; i < count; ++i) {
    sim.Connect(topo.routers[static_cast<std::size_t>((i - 1) / 2)],
                topo.routers[static_cast<std::size_t>(i)], link_delay);
  }
  AddStubLans(sim, topo, 0);
  return topo;
}

Topology MakeWaxman(Simulator& sim, const WaxmanParams& params) {
  assert(params.n >= 2);
  Topology topo;
  Rng rng(params.seed);

  struct Point {
    double x, y;
  };
  std::vector<Point> pos(static_cast<std::size_t>(params.n));
  for (auto& p : pos) p = {rng.NextDouble(), rng.NextDouble()};

  for (int i = 0; i < params.n; ++i) AddRouter(sim, topo, Numbered("R", i));

  const auto distance = [&](int a, int b) {
    const double dx = pos[(std::size_t)a].x - pos[(std::size_t)b].x;
    const double dy = pos[(std::size_t)a].y - pos[(std::size_t)b].y;
    return std::sqrt(dx * dx + dy * dy);
  };
  const auto connect = [&](int a, int b) {
    const SimDuration delay =
        params.base_delay +
        static_cast<SimDuration>(distance(a, b) *
                                 static_cast<double>(params.delay_spread));
    sim.Connect(topo.routers[(std::size_t)a], topo.routers[(std::size_t)b],
                delay);
  };

  // Waxman edge probability: alpha * exp(-d / (beta * L)), L = max distance.
  const double L = std::sqrt(2.0);
  std::vector<std::vector<bool>> connected(
      (std::size_t)params.n, std::vector<bool>((std::size_t)params.n, false));
  for (int i = 0; i < params.n; ++i) {
    for (int j = i + 1; j < params.n; ++j) {
      const double p =
          params.alpha * std::exp(-distance(i, j) / (params.beta * L));
      if (rng.NextBool(p)) {
        connect(i, j);
        connected[(std::size_t)i][(std::size_t)j] = true;
      }
    }
  }

  // Guarantee connectivity: stitch a random permutation into a chain,
  // adding only the missing edges.
  std::vector<std::size_t> order = rng.SampleWithoutReplacement(
      static_cast<std::size_t>(params.n), static_cast<std::size_t>(params.n));
  // SampleWithoutReplacement(n, n) is a shuffle of 0..n-1.
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    const int a = static_cast<int>(std::min(order[k], order[k + 1]));
    const int b = static_cast<int>(std::max(order[k], order[k + 1]));
    if (!connected[(std::size_t)a][(std::size_t)b]) {
      connect(a, b);
      connected[(std::size_t)a][(std::size_t)b] = true;
    }
  }

  AddStubLans(sim, topo, 0);
  return topo;
}

Topology MakeTransitStub(Simulator& sim, const TransitStubParams& params) {
  assert(params.transit_nodes >= 2 && params.stub_domains >= 1 &&
         params.stub_size >= 1);
  Topology topo;
  Rng rng(params.seed);

  // Transit backbone: ring plus random chords (dense, redundant).
  std::vector<NodeId> transit;
  for (int i = 0; i < params.transit_nodes; ++i) {
    transit.push_back(AddRouter(sim, topo, Numbered("T", i)));
  }
  for (int i = 0; i < params.transit_nodes; ++i) {
    sim.Connect(transit[(std::size_t)i],
                transit[(std::size_t)((i + 1) % params.transit_nodes)],
                params.transit_delay);
  }
  for (int i = 0; i < params.transit_nodes; ++i) {
    for (int j = i + 2; j < params.transit_nodes; ++j) {
      if ((i + 1) % params.transit_nodes == j % params.transit_nodes) continue;
      if (rng.NextBool(0.3)) {
        sim.Connect(transit[(std::size_t)i], transit[(std::size_t)j],
                    params.transit_delay);
      }
    }
  }

  // Stub domains: short chains rooted at a random transit router.
  for (int d = 0; d < params.stub_domains; ++d) {
    const NodeId attach =
        transit[(std::size_t)rng.NextBelow((std::uint64_t)params.transit_nodes)];
    NodeId previous = attach;
    for (int k = 0; k < params.stub_size; ++k) {
      const NodeId router = AddRouter(
          sim, topo, Numbered(Numbered("S", d) + "_", k));
      sim.Connect(previous, router, params.stub_delay);
      previous = router;
    }
  }

  AddStubLans(sim, topo, 0);
  return topo;
}

}  // namespace cbt::netsim
