// Long-horizon churn soak: random joins, leaves, sends, link flaps and
// router restarts over tens of simulated minutes, with the global
// invariants re-checked at the end. This is the "does anything wedge
// eventually" test that individual scenarios cannot provide.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cbt/core_selection.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::Simulator;
using netsim::Topology;

Ipv4Address GroupAddr(int g) {
  return Ipv4Address(239, 140, 0, static_cast<std::uint8_t>(g + 1));
}

class ChurnSoak : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSoak, ::testing::Values(3, 17, 29));

TEST_P(ChurnSoak, SurvivesAndConvergesAfterChurn) {
  const std::uint64_t seed = GetParam();
  Simulator sim(seed);
  netsim::WaxmanParams params;
  params.n = 20;
  params.seed = seed * 7 + 3;
  Topology topo = netsim::MakeWaxman(sim, params);
  CbtDomain domain(sim, topo);
  Rng rng(seed * 101 + 7);

  constexpr int kGroups = 2;
  core_selection::PlacementInput place_in;
  place_in.routers = topo.routers;
  place_in.rng = &rng;
  const auto random_cores = core_selection::MakeStrategy("random");
  for (int g = 0; g < kGroups; ++g) {
    domain.RegisterGroup(GroupAddr(g),
                         random_cores->Place(place_in, 2).cores);
  }
  domain.Start();
  sim.RunUntil(kSecond);

  // A pool of hosts, two per LAN region.
  std::vector<HostAgent*> hosts;
  for (std::size_t i = 0; i < topo.router_lans.size(); i += 2) {
    hosts.push_back(
        &domain.AddHost(topo.router_lans[i], netsim::Numbered("h", i)));
  }

  // 30 simulated minutes of random events every ~10s.
  std::set<std::pair<std::size_t, int>> member_of;
  std::vector<SubnetId> flapped;
  for (int step = 0; step < 180; ++step) {
    const std::uint64_t dice = rng.NextBelow(100);
    const std::size_t h = rng.NextBelow(hosts.size());
    const int g = static_cast<int>(rng.NextBelow(kGroups));
    if (dice < 40) {
      hosts[h]->JoinGroup(GroupAddr(g));
      member_of.insert({h, g});
    } else if (dice < 60) {
      hosts[h]->LeaveGroup(GroupAddr(g));
      member_of.erase({h, g});
    } else if (dice < 85) {
      hosts[h]->SendToGroup(GroupAddr(g), std::vector<std::uint8_t>{1});
    } else if (dice < 93) {
      // Flap a random transit link briefly.
      const SubnetId victim(
          static_cast<std::int32_t>(rng.NextBelow(sim.subnet_count())));
      sim.SetSubnetUp(victim, false);
      flapped.push_back(victim);
    } else if (!flapped.empty()) {
      sim.SetSubnetUp(flapped.back(), true);
      flapped.pop_back();
    } else {
      // Restart a random non-core router.
      const NodeId victim =
          topo.routers[rng.NextBelow(topo.routers.size())];
      domain.router(victim).SimulateRestart();
    }
    sim.RunUntil(sim.Now() + 10 * kSecond);
  }
  // Heal everything and let the protocol settle (echo timeout + rejoin +
  // membership refresh cycles).
  for (const SubnetId s : flapped) sim.SetSubnetUp(s, true);
  sim.RunUntil(sim.Now() + 600 * kSecond);

  // Invariant 1: no parent cycles, parent/child agreement.
  for (int g = 0; g < kGroups; ++g) {
    std::map<NodeId, NodeId> parent_of;
    for (const NodeId id : domain.router_ids()) {
      const FibEntry* entry = domain.router(id).fib().Find(GroupAddr(g));
      if (entry == nullptr || !entry->HasParent()) continue;
      const auto parent = sim.FindNodeByAddress(entry->parent_address);
      ASSERT_TRUE(parent.has_value());
      parent_of[id] = *parent;
    }
    for (const auto& [start, unused] : parent_of) {
      NodeId cur = start;
      std::set<NodeId> seen{cur};
      while (parent_of.contains(cur)) {
        cur = parent_of[cur];
        ASSERT_TRUE(seen.insert(cur).second)
            << "cycle in group " << g << " at " << sim.node(cur).name;
      }
    }
  }

  // Invariant 2: current members all receive a fresh packet exactly once.
  for (int g = 0; g < kGroups; ++g) {
    std::vector<HostAgent*> members;
    for (const auto& [h, mg] : member_of) {
      if (mg == g) members.push_back(hosts[h]);
    }
    if (members.size() < 2) continue;
    std::vector<std::uint64_t> before;
    for (auto* m : members) before.push_back(m->ReceivedCount(GroupAddr(g)));
    members[0]->SendToGroup(GroupAddr(g), std::vector<std::uint8_t>{7});
    sim.RunUntil(sim.Now() + 10 * kSecond);
    for (std::size_t i = 1; i < members.size(); ++i) {
      EXPECT_EQ(members[i]->ReceivedCount(GroupAddr(g)), before[i] + 1)
          << "group " << g << " member " << i << " after churn";
    }
  }
}

}  // namespace
}  // namespace cbt::core
