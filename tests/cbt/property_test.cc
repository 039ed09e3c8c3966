// Property-based protocol tests: randomized topologies, memberships,
// failures and traffic, with invariants checked after quiescence:
//   P1  tree consistency — per group, parent pointers form a forest
//       (no cycles) and parent/child records agree pairwise;
//   P2  delivery — every member receives every other member's packet
//       exactly once (no loss on a quiet network, and *no duplicates*);
//   P3  cleanliness — after all members leave, only core routers may
//       still hold state for the group;
//   P4  determinism — identical seeds produce identical protocol
//       outcomes.
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
  return Ipv4Address(239, 100, 0, static_cast<std::uint8_t>(g + 1));
}

/// One randomized scenario world.
struct World {
  explicit World(std::uint64_t seed, int groups = 3, int routers = 24)
      : sim(seed), groups(groups) {
    netsim::WaxmanParams params;
    params.n = routers;
    params.seed = seed * 31 + 7;
    topo = netsim::MakeWaxman(sim, params);
    domain.emplace(sim, topo);
    Rng rng(seed * 13 + 1);
    core_selection::PlacementInput place_in;
    place_in.routers = topo.routers;
    place_in.rng = &rng;
    const auto random_cores = core_selection::MakeStrategy("random");
    for (int g = 0; g < groups; ++g) {
      domain->RegisterGroup(
          GroupAddr(g), random_cores->Place(place_in, 1 + (g % 2)).cores);
    }
    domain->Start();
    sim.RunUntil(kSecond);
  }

  /// Random joins across random LANs.
  std::map<int, std::vector<HostAgent*>> JoinRandomMembers(Rng& rng,
                                                           int per_group) {
    std::map<int, std::vector<HostAgent*>> members;
    for (int g = 0; g < groups; ++g) {
      for (const std::size_t idx : rng.SampleWithoutReplacement(
               topo.routers.size(), (std::size_t)per_group)) {
        auto& h = domain->AddHost(
            topo.router_lans[idx],
            netsim::Numbered(netsim::Numbered("h", g) + "_", idx));
        h.JoinGroup(GroupAddr(g));
        members[g].push_back(&h);
        sim.RunUntil(sim.Now() + 300 * kMillisecond);
      }
    }
    sim.RunUntil(sim.Now() + 30 * kSecond);
    return members;
  }

  /// P1: parent pointers per group form a forest with consistent
  /// parent/child bookkeeping.
  void CheckTreeConsistency(int g) {
    const Ipv4Address group = GroupAddr(g);
    std::map<NodeId, NodeId> parent_of;
    for (const NodeId id : domain->router_ids()) {
      const FibEntry* entry = domain->router(id).fib().Find(group);
      if (entry == nullptr || !entry->HasParent()) continue;
      const auto parent = sim.FindNodeByAddress(entry->parent_address);
      ASSERT_TRUE(parent.has_value());
      parent_of[id] = *parent;

      // Pairwise: the parent lists us as a child via some address we own.
      const FibEntry* parent_entry =
          domain->router(*parent).fib().Find(group);
      ASSERT_NE(parent_entry, nullptr)
          << sim.node(id).name << "'s parent " << sim.node(*parent).name
          << " has no entry for the group";
      bool listed = false;
      for (const ChildEntry& c : parent_entry->children) {
        if (domain->router(id).OwnsAddress(c.address)) listed = true;
      }
      EXPECT_TRUE(listed) << sim.node(*parent).name << " does not list "
                          << sim.node(id).name << " as child";
    }
    // Acyclic: walk up from every node; must terminate within |V| steps.
    for (const auto& [start, first] : parent_of) {
      NodeId cur = start;
      std::set<NodeId> seen{cur};
      while (parent_of.contains(cur)) {
        cur = parent_of[cur];
        ASSERT_TRUE(seen.insert(cur).second)
            << "parent cycle through " << sim.node(cur).name;
      }
    }
  }

  /// P2: all-to-all delivery, exactly once.
  void CheckDelivery(std::map<int, std::vector<HostAgent*>>& members) {
    for (auto& [g, hosts] : members) {
      const auto before = [&] {
        std::vector<std::uint64_t> counts;
        for (auto* h : hosts) counts.push_back(h->ReceivedCount(GroupAddr(g)));
        return counts;
      }();
      for (auto* h : hosts) {
        h->SendToGroup(GroupAddr(g), std::vector<std::uint8_t>{0xAA});
        sim.RunUntil(sim.Now() + 2 * kSecond);
      }
      sim.RunUntil(sim.Now() + 10 * kSecond);
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        EXPECT_EQ(hosts[i]->ReceivedCount(GroupAddr(g)) - before[i],
                  hosts.size() - 1)
            << "group " << g << " member " << i
            << " (exactly one copy from each other member)";
      }
    }
  }

  Simulator sim;
  int groups;
  Topology topo;
  std::optional<CbtDomain> domain;
};

class PropertyFixture : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyFixture,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(PropertyFixture, TreesAreConsistentAndDeliveryExact) {
  World world(GetParam());
  Rng rng(GetParam() * 1000 + 1);
  auto members = world.JoinRandomMembers(rng, 5);
  for (int g = 0; g < world.groups; ++g) world.CheckTreeConsistency(g);
  world.CheckDelivery(members);
}

TEST_P(PropertyFixture, StateDrainsAfterAllLeave) {
  World world(GetParam());
  Rng rng(GetParam() * 2000 + 1);
  auto members = world.JoinRandomMembers(rng, 4);
  for (auto& [g, hosts] : members) {
    for (auto* h : hosts) {
      h->LeaveGroup(GroupAddr(g));
      world.sim.RunUntil(world.sim.Now() + kSecond);
    }
  }
  // Leave latency + quit propagation + interface scans.
  world.sim.RunUntil(world.sim.Now() + 700 * kSecond);

  for (int g = 0; g < world.groups; ++g) {
    for (const NodeId id : world.domain->router_ids()) {
      const FibEntry* entry =
          world.domain->router(id).fib().Find(GroupAddr(g));
      if (entry == nullptr) continue;
      EXPECT_TRUE(entry->is_primary_core)
          << world.sim.node(id).name
          << " still holds non-primary-core state for "
          << GroupAddr(g).ToString();
      EXPECT_TRUE(entry->children.empty())
          << world.sim.node(id).name << " still lists children";
    }
  }
}

TEST_P(PropertyFixture, SurvivesRandomLinkFailure) {
  World world(GetParam());
  Rng rng(GetParam() * 3000 + 1);
  auto members = world.JoinRandomMembers(rng, 4);

  // Kill a random subnet (possibly a tree link), wait out recovery, and
  // require consistency plus delivery among still-connected members.
  const SubnetId victim(static_cast<std::int32_t>(
      rng.NextBelow(world.sim.subnet_count())));
  world.sim.SetSubnetUp(victim, false);
  world.sim.RunUntil(world.sim.Now() + 400 * kSecond);

  for (int g = 0; g < world.groups; ++g) world.CheckTreeConsistency(g);

  // Delivery check restricted to groups whose members all remain
  // connected to their tree (a failed stub LAN can legitimately isolate
  // a member's host or DR).
  auto& routes = world.domain->routes();
  for (auto& [g, hosts] : members) {
    bool all_on_tree = true;
    const auto on_tree = world.domain->OnTreeRouters(GroupAddr(g));
    if (on_tree.empty()) continue;
    for (auto* h : hosts) {
      // The host's LAN must still be attached to some on-tree router.
      const auto dr = world.sim.FindNodeByAddress(h->address());
      (void)dr;
      bool reachable = false;
      for (const NodeId r : on_tree) {
        if (routes.IsDirectlyAttached(r, h->address())) reachable = true;
      }
      if (!reachable) all_on_tree = false;
    }
    if (!all_on_tree) continue;
    const auto before = hosts[0]->ReceivedCount(GroupAddr(g));
    hosts[1]->SendToGroup(GroupAddr(g), std::vector<std::uint8_t>{1});
    world.sim.RunUntil(world.sim.Now() + 5 * kSecond);
    EXPECT_EQ(hosts[0]->ReceivedCount(GroupAddr(g)), before + 1)
        << "group " << g << " lost connectivity it should have kept";
  }
}

TEST(PropertyDeterminism, SameSeedSameOutcome) {
  const auto run = [](std::uint64_t seed) {
    World world(seed);
    Rng rng(seed * 1000 + 1);
    auto members = world.JoinRandomMembers(rng, 5);
    for (auto& [g, hosts] : members) {
      for (auto* h : hosts) {
        h->SendToGroup(GroupAddr(g), std::vector<std::uint8_t>{1});
      }
    }
    world.sim.RunUntil(world.sim.Now() + 20 * kSecond);
    // Fingerprint: total control messages + per-router state + deliveries.
    std::uint64_t fingerprint = world.domain->TotalControlMessages();
    fingerprint = fingerprint * 1000003 + world.domain->TotalFibState();
    for (auto& [g, hosts] : members) {
      for (auto* h : hosts) {
        fingerprint = fingerprint * 1000003 + h->ReceivedCount(GroupAddr(g));
      }
    }
    return fingerprint;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // and seeds actually matter
}

}  // namespace
}  // namespace cbt::core
