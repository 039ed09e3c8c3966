// Multi-core shared trees: k-core partition joins, assigned-core failover
// (section 6.1 under a partition), soft-state reconciliation against a
// replaced directory core list, and the locality strategy end to end.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "analysis/invariant_auditor.h"
#include "cbt/core_selection.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 9, 9, 9);
const std::vector<std::uint8_t> kPayload{7, 7};

/// Soak-style tightened timers so detection/teardown/reconciliation all
/// land within a short run (the iff scan is the reconciliation backstop).
CbtConfig TightConfig() {
  CbtConfig config;
  config.echo_interval = 5 * kSecond;
  config.echo_timeout = 15 * kSecond;
  config.pend_join_interval = 2 * kSecond;
  config.pend_join_timeout = 8 * kSecond;
  config.expire_pending_join = 30 * kSecond;
  config.child_assert_interval = 10 * kSecond;
  config.child_assert_expire = 25 * kSecond;
  config.iff_scan_interval = 60 * kSecond;
  config.reconnect_timeout = 30 * kSecond;
  config.proxy_refresh_interval = 20 * kSecond;
  return config;
}

/// 4x4 grid, every router with a stub LAN. Node ids are row-major
/// (topo.routers[y * 4 + x]); opposite corners make natural core sites.
class MultiCoreTreeFixture : public ::testing::Test {
 protected:
  MultiCoreTreeFixture() {
    topo = netsim::MakeGrid(sim, 4, 4);
    domain.emplace(sim, topo, TightConfig());
  }

  NodeId router_at(int x, int y) const {
    return topo.routers[static_cast<std::size_t>(y * 4 + x)];
  }
  SubnetId lan_at(int x, int y) const {
    return topo.router_lans[static_cast<std::size_t>(y * 4 + x)];
  }

  /// Runs the convergence probe and asserts a clean audit.
  void ExpectConverged(SimDuration window = 120 * kSecond) {
    const auto clean =
        analysis::RunUntilInvariantsHold(*domain, sim.Now() + window);
    ASSERT_TRUE(clean.has_value()) << "invariants never held; last audit:\n"
                                   << RenderAudit();
  }

  std::string RenderAudit() {
    std::ostringstream os;
    for (const auto& v : analysis::InvariantAuditor(*domain).Audit().violations) {
      os << "  " << v.Describe() << "\n";
    }
    return os.str();
  }

  Simulator sim{1};
  Topology topo;
  std::optional<CbtDomain> domain;
};

TEST_F(MultiCoreTreeFixture, PartitionedJoinTargetsAssignedCore) {
  const NodeId core0 = router_at(0, 0), core1 = router_at(3, 3);
  core_selection::Placement placement;
  placement.cores = {core0, core1};
  placement.assignment = {0, 1};
  const std::vector<Ipv4Address> addrs = domain->RegisterGroup(
      kGroup, placement, {lan_at(1, 0), lan_at(2, 3)});
  ASSERT_EQ(addrs.size(), 2u);
  domain->Start();
  sim.RunUntil(kSecond);

  HostAgent& near0 = domain->AddHost(lan_at(1, 0), "m-near0");
  HostAgent& near1 = domain->AddHost(lan_at(2, 3), "m-near1");
  near0.JoinGroup(kGroup);
  near1.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 30 * kSecond);

  // Both cores anchored: core0 is the primary; core1 learned its core
  // role from the join targeting it (section 6.2) and bridged to the
  // primary, so the k subtrees form one connected forest.
  const FibEntry* e0 = domain->router(core0).fib().Find(kGroup);
  const FibEntry* e1 = domain->router(core1).fib().Find(kGroup);
  ASSERT_NE(e0, nullptr);
  ASSERT_NE(e1, nullptr);
  EXPECT_TRUE(e0->is_primary_core);
  EXPECT_TRUE(e1->is_core);
  EXPECT_FALSE(e1->is_primary_core);
  EXPECT_TRUE(e1->HasParent()) << "secondary core must bridge to primary";

  // Each member D-DR's branch affiliation names its assigned core.
  const FibEntry* d0 = domain->router(router_at(1, 0)).fib().Find(kGroup);
  const FibEntry* d1 = domain->router(router_at(2, 3)).fib().Find(kGroup);
  ASSERT_NE(d0, nullptr);
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(d0->affiliation, addrs[0]);
  EXPECT_EQ(d1->affiliation, addrs[1]);

  ExpectConverged();

  // Data crosses the core bridge: a member behind core0's subtree reaches
  // the member behind core1's.
  near0.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 2 * kSecond);
  EXPECT_EQ(near1.ReceivedCount(kGroup), 1u);
}

TEST_F(MultiCoreTreeFixture, AssignedCoreFailoverCyclesWithoutLooping) {
  const NodeId core0 = router_at(0, 0), core1 = router_at(3, 3);
  core_selection::Placement placement;
  placement.cores = {core0, core1};
  placement.assignment = {1};
  domain->RegisterGroup(kGroup, placement, {lan_at(2, 3)});
  domain->Start();
  sim.RunUntil(kSecond);

  HostAgent& member = domain->AddHost(lan_at(2, 3), "m");
  member.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 20 * kSecond);

  const NodeId ddr = router_at(2, 3);
  ASSERT_TRUE(domain->router(ddr).IsOnTree(kGroup));

  int reconnected = 0;
  CbtRouter::Callbacks cb;
  cb.on_reconnected = [&](Ipv4Address) { ++reconnected; };
  domain->router(ddr).set_callbacks(std::move(cb));

  // Kill the assigned core. The D-DR's reconnect consults the assigned
  // index first (dead), then must cycle to the next listed core
  // (section 6.1) instead of retrying the corpse forever.
  domain->CrashRouter(core1);
  sim.RunUntil(sim.Now() + 200 * kSecond);

  EXPECT_GE(reconnected, 1);
  const FibEntry* entry = domain->router(ddr).fib().Find(kGroup);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->HasParent() || entry->is_core);

  // The branch now hangs from the surviving primary: walk the parent
  // chain and require it to terminate at core0 without revisiting nodes.
  std::set<NodeId> seen;
  NodeId cur = ddr;
  while (true) {
    ASSERT_TRUE(seen.insert(cur).second) << "parent loop through node "
                                         << cur.value();
    const FibEntry* e = domain->router(cur).fib().Find(kGroup);
    ASSERT_NE(e, nullptr);
    if (!e->HasParent()) break;
    const auto parent = sim.FindNodeByAddress(e->parent_address);
    ASSERT_TRUE(parent.has_value());
    cur = *parent;
  }
  EXPECT_EQ(cur, core0);
}

TEST_F(MultiCoreTreeFixture, DirectoryCoreReplacementDoesNotStrandFib) {
  const NodeId old_core = router_at(0, 0), new_core = router_at(3, 3);
  domain->RegisterGroup(kGroup, {old_core});
  domain->Start();
  sim.RunUntil(kSecond);

  HostAgent& m1 = domain->AddHost(lan_at(1, 1), "m1");
  HostAgent& m2 = domain->AddHost(lan_at(3, 0), "m2");
  m1.JoinGroup(kGroup);
  m2.JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 20 * kSecond);
  ASSERT_TRUE(domain->router(old_core).fib().Find(kGroup)->is_primary_core);

  // Replace the directory's core list mid-session, with members joined.
  // No management orchestration beyond the publish: the soft-state
  // reconciliation at every quit-check (bounded by the iff scan) must
  // demote the old anchor, flush its subtree, and re-home every member
  // on the new core — leaving no stranded FIB state behind.
  domain->RegisterGroup(kGroup, {new_core});
  sim.RunUntil(sim.Now() + 3 * TightConfig().iff_scan_interval);

  ExpectConverged();

  const FibEntry* fresh = domain->router(new_core).fib().Find(kGroup);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->is_primary_core);
  const FibEntry* stale = domain->router(old_core).fib().Find(kGroup);
  if (stale != nullptr) {
    EXPECT_FALSE(stale->is_core) << "old anchor kept its core role";
  }

  // Members are still served through the re-homed tree.
  m1.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 2 * kSecond);
  EXPECT_EQ(m2.ReceivedCount(kGroup), 1u);
}

TEST_F(MultiCoreTreeFixture, LocalityStrategyPartitionJoinsAtKFour) {
  // Members spread over all four grid quadrants; the locality strategy
  // clusters them by unicast delay and places one core per cluster.
  const std::vector<NodeId> members = {
      router_at(0, 0), router_at(1, 1), router_at(3, 0), router_at(2, 1),
      router_at(0, 3), router_at(1, 2), router_at(3, 3), router_at(2, 2)};
  std::vector<SubnetId> member_lans;
  for (const NodeId m : members) {
    member_lans.push_back(
        topo.router_lans[static_cast<std::size_t>(m.value())]);
  }

  const auto strategy = core_selection::MakeStrategy("locality");
  ASSERT_NE(strategy, nullptr);
  core_selection::PlacementInput in;
  in.sim = &sim;
  in.routes = &domain->routes();
  in.routers = topo.routers;
  in.member_routers = members;
  in.group = kGroup;
  const core_selection::Placement placement = strategy->Place(in, 4);
  ASSERT_EQ(placement.cores.size(), 4u);
  ASSERT_EQ(placement.assignment.size(), members.size());

  domain->RegisterGroup(kGroup, placement, member_lans);
  domain->Start();
  sim.RunUntil(kSecond);

  std::vector<HostAgent*> hosts;
  for (std::size_t i = 0; i < member_lans.size(); ++i) {
    hosts.push_back(
        &domain->AddHost(member_lans[i], netsim::Numbered("m", i)));
    hosts.back()->JoinGroup(kGroup);
  }
  sim.RunUntil(sim.Now() + 40 * kSecond);
  ExpectConverged();

  // The partition is real: member branches hang from more than one core.
  std::set<Ipv4Address> affiliations;
  for (const NodeId m : members) {
    const FibEntry* e = domain->router(m).fib().Find(kGroup);
    ASSERT_NE(e, nullptr) << "member D-DR " << m.value() << " off tree";
    affiliations.insert(e->affiliation);
  }
  EXPECT_GE(affiliations.size(), 2u);

  // And the forest still delivers to everyone from any source.
  hosts.front()->SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 2 * kSecond);
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    EXPECT_EQ(hosts[i]->ReceivedCount(kGroup), 1u) << "receiver " << i;
  }
}

}  // namespace
}  // namespace cbt::core
