// Chaos regression: CBT under packet-level fault models (duplication,
// corruption, reordering) and seeded crash/flap/partition schedules, with
// the invariant auditor as the convergence oracle.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/invariant_auditor.h"
#include "cbt/domain.h"
#include "netsim/chaos.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::ChaosEvent;
using netsim::ChaosEventType;
using netsim::ChaosInjector;
using netsim::ChaosPlan;
using netsim::ChaosPlanParams;
using netsim::FaultProfile;
using netsim::MakeRandomPlan;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 1, 2, 3);
const std::vector<std::uint8_t> kPayload{42};

/// Spec timers tightened uniformly so fault/recovery cycles fit in short
/// test runs (section 9 leaves them per-implementation).
CbtConfig FastConfig() {
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

igmp::IgmpConfig FastIgmp() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

/// Diamond r0 -- r1 -- r3 / r0 -- r2 -- r3 with member LANs on r0 and r1
/// and the core + source LAN on r3.
class ChaosFixture : public ::testing::Test {
 protected:
  ChaosFixture() {
    r0 = sim.AddNode("r0", true);
    r1 = sim.AddNode("r1", true);
    r2 = sim.AddNode("r2", true);
    r3 = sim.AddNode("r3", true);
    topo.routers = {r0, r1, r2, r3};
    topo.nodes = {{"r0", r0}, {"r1", r1}, {"r2", r2}, {"r3", r3}};
    l01 = sim.Connect(r0, r1);
    l13 = sim.Connect(r1, r3);
    l02 = sim.Connect(r0, r2);
    l23 = sim.Connect(r2, r3);
    lan0 = sim.AddSubnet(
        "lan0", SubnetAddress::FromPrefix(Ipv4Address(10, 30, 0, 0), 16));
    lan1 = sim.AddSubnet(
        "lan1", SubnetAddress::FromPrefix(Ipv4Address(10, 31, 0, 0), 16));
    lan3 = sim.AddSubnet(
        "lan3", SubnetAddress::FromPrefix(Ipv4Address(10, 32, 0, 0), 16));
    sim.Attach(r0, lan0);
    sim.Attach(r1, lan1);
    sim.Attach(r3, lan3);
    topo.subnets = {{"l01", l01},   {"l13", l13},   {"l02", l02},
                    {"l23", l23},   {"lan0", lan0}, {"lan1", lan1},
                    {"lan3", lan3}};
  }

  /// Call after arming any pre-join faults.
  void Converge() {
    domain.emplace(sim, topo, FastConfig(), FastIgmp());
    domain->RegisterGroup(kGroup, {r3});
    domain->Start();
    sim.RunUntil(kSecond);
    member0 = &domain->AddHost(lan0, "m0");
    member1 = &domain->AddHost(lan1, "m1");
    source = &domain->AddHost(lan3, "src");
    member0->JoinGroup(kGroup);
    member1->JoinGroup(kGroup);
    sim.RunUntil(20 * kSecond);
  }

  void SetLinkFaults(const FaultProfile& faults) {
    for (const SubnetId link : {l01, l13, l02, l23}) {
      sim.SetSubnetFaults(link, faults);
    }
  }

  std::uint64_t TotalMalformed() {
    std::uint64_t total = 0;
    for (const NodeId id : domain->router_ids()) {
      total += domain->router(id).stats().malformed_control;
    }
    return total;
  }

  Simulator sim{1};
  Topology topo;
  NodeId r0, r1, r2, r3;
  SubnetId l01, l13, l02, l23, lan0, lan1, lan3;
  std::optional<CbtDomain> domain;
  HostAgent* member0 = nullptr;
  HostAgent* member1 = nullptr;
  HostAgent* source = nullptr;
};

TEST_F(ChaosFixture, DuplicationNeverCreatesDuplicateFibChildren) {
  FaultProfile faults;
  faults.duplicate_rate = 1.0;  // every frame arrives twice
  SetLinkFaults(faults);
  Converge();

  // Every join, ack, and echo is doubled, yet each child appears once.
  for (const NodeId id : domain->router_ids()) {
    const FibEntry* entry = domain->router(id).fib().Find(kGroup);
    if (entry == nullptr) continue;
    std::vector<Ipv4Address> addrs;
    for (const auto& child : entry->children) addrs.push_back(child.address);
    std::sort(addrs.begin(), addrs.end());
    EXPECT_TRUE(std::adjacent_find(addrs.begin(), addrs.end()) == addrs.end())
        << sim.node(id).name << " has duplicate children";
  }
  analysis::InvariantAuditor auditor(*domain);
  const auto report = auditor.Audit();
  EXPECT_TRUE(report.Clean()) << report.Summary();
  EXPECT_EQ(report.CountOf(analysis::InvariantKind::kDuplicateChild), 0u);
  EXPECT_GT(sim.subnet(l01).counters.frames_duplicated, 0u);
}

TEST_F(ChaosFixture, CorruptedControlIsCountedAndNeverCrashes) {
  Converge();
  FaultProfile faults;
  faults.corrupt_rate = 0.15;
  SetLinkFaults(faults);
  sim.RunUntil(sim.Now() + 120 * kSecond);

  // Checksums caught the mangled control traffic.
  EXPECT_GT(TotalMalformed(), 0u);

  // With the corruption gone, soft state repairs everything.
  SetLinkFaults(FaultProfile{});
  const auto clean =
      analysis::RunUntilInvariantsHold(*domain, sim.Now() + 180 * kSecond);
  ASSERT_TRUE(clean.has_value());
  source->SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_GE(member0->ReceivedCount(kGroup), 1u);
}

TEST_F(ChaosFixture, ReorderingDoesNotBreakJoinAckPairing) {
  FaultProfile faults;
  faults.reorder_rate = 1.0;
  faults.reorder_jitter = 200 * kMillisecond;
  SetLinkFaults(faults);
  Converge();

  EXPECT_TRUE(domain->router(r0).IsOnTree(kGroup));
  EXPECT_TRUE(domain->router(r1).IsOnTree(kGroup));
  analysis::InvariantAuditor auditor(*domain);
  const auto report = auditor.Audit();
  EXPECT_TRUE(report.Clean()) << report.Summary();

  source->SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_GE(member0->ReceivedCount(kGroup), 1u);
  EXPECT_GE(member1->ReceivedCount(kGroup), 1u);
}

TEST_F(ChaosFixture, CrashedRouterRestartsAndRejoinsMidTraffic) {
  Converge();
  ASSERT_TRUE(domain->router(r1).IsOnTree(kGroup));

  // Steady traffic throughout the crash window.
  for (SimTime t = sim.Now(); t < sim.Now() + 200 * kSecond; t += kSecond) {
    sim.ScheduleAt(t, [this] { source->SendToGroup(kGroup, kPayload); });
  }

  domain->CrashRouter(r1);
  EXPECT_TRUE(domain->router(r1).IsCrashed());
  EXPECT_FALSE(domain->router(r1).IsOnTree(kGroup));  // full state loss

  // r0 detects the dead parent by echo timeout and reconnects via r2.
  sim.RunUntil(sim.Now() + 60 * kSecond);
  const FibEntry* r0_entry = domain->router(r0).fib().Find(kGroup);
  ASSERT_NE(r0_entry, nullptr);
  EXPECT_EQ(sim.FindNodeByAddress(r0_entry->parent_address), r2);
  const auto received_mid_crash = member0->ReceivedCount(kGroup);
  EXPECT_GT(received_mid_crash, 0u);

  // Restart: r1 re-learns lan1's membership via IGMP (startup queries,
  // then a report) and rejoins — give it a full query cycle.
  domain->RestartRouter(r1);
  EXPECT_FALSE(domain->router(r1).IsCrashed());
  sim.RunUntil(sim.Now() + 60 * kSecond);
  EXPECT_TRUE(domain->router(r1).IsOnTree(kGroup));

  // lan1 is being served again.
  const auto before = member1->ReceivedCount(kGroup);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  EXPECT_GT(member1->ReceivedCount(kGroup), before);
  analysis::InvariantAuditor auditor(*domain);
  EXPECT_TRUE(auditor.Audit().Clean()) << auditor.Audit().Summary();
}

TEST_F(ChaosFixture, PartitionHealsAndInvariantsRecover) {
  Converge();
  ChaosEvent e;
  e.type = ChaosEventType::kPartition;
  e.at = sim.Now() + 10 * kSecond;
  e.duration = 30 * kSecond;  // comfortably past the 15s echo timeout
  e.isolated = {r1};
  ChaosPlan plan;
  plan.events = {e};

  ChaosInjector injector(sim, domain->ChaosHooks());
  injector.Arm(plan);
  // During the cut, r1 loses its parent (echo timeout) and eventually
  // gives up reconnecting; r0 reroutes via r2. After the heal, IGMP
  // re-discovers lan1's member and r1 rejoins.
  sim.RunUntil(e.repair_at() + 60 * kSecond);
  EXPECT_GE(domain->router(r1).stats().parent_losses, 1u);
  EXPECT_TRUE(domain->router(r1).IsOnTree(kGroup));
  analysis::InvariantAuditor auditor(*domain);
  EXPECT_TRUE(auditor.Audit().Clean()) << auditor.Audit().Summary();

  source->SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_GE(member1->ReceivedCount(kGroup), 1u);
}

TEST(ChaosPlanTest, SameSeedSamePlanDifferentSeedDifferentPlan) {
  const std::vector<NodeId> nodes = {NodeId(1), NodeId(2), NodeId(3)};
  const std::vector<SubnetId> subnets = {SubnetId(0), SubnetId(1)};
  ChaosPlanParams params;
  params.event_count = 40;
  const ChaosPlan a = MakeRandomPlan(11, params, nodes, subnets);
  const ChaosPlan b = MakeRandomPlan(11, params, nodes, subnets);
  const ChaosPlan c = MakeRandomPlan(12, params, nodes, subnets);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_NE(a.Describe(), c.Describe());
  ASSERT_EQ(a.events.size(), 40u);
  // Events are ordered and never overlap.
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_GT(a.events[i].at, a.events[i - 1].repair_at());
  }
}

TEST(ChaosSoakTest, SeededScheduleOnGridConvergesCleanly) {
  Simulator sim(1);
  Topology topo = netsim::MakeGrid(sim, 4, 4);
  CbtDomain domain(sim, topo, FastConfig(), FastIgmp());
  const NodeId primary = topo.routers[0];
  const NodeId secondary = topo.routers[15];
  domain.RegisterGroup(kGroup, {primary, secondary});
  domain.Start();
  sim.RunUntil(kSecond);
  std::vector<HostAgent*> members;
  for (const std::size_t idx : {3u, 5u, 10u, 12u}) {
    members.push_back(
        &domain.AddHost(topo.router_lans[idx], netsim::Numbered("m", idx)));
    members.back()->JoinGroup(kGroup);
  }
  sim.RunUntil(30 * kSecond);
  ASSERT_TRUE(analysis::RunUntilInvariantsHold(domain, 40 * kSecond));

  std::vector<NodeId> crashable;
  for (const NodeId id : topo.routers) {
    if (id != primary && id != secondary) crashable.push_back(id);
  }
  std::vector<SubnetId> flappable;
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    if (std::find(topo.router_lans.begin(), topo.router_lans.end(), sid) ==
        topo.router_lans.end()) {
      flappable.push_back(sid);
    }
  }
  ChaosPlanParams params;
  params.event_count = 12;
  params.start = 60 * kSecond;
  params.min_gap = 40 * kSecond;
  params.max_gap = 80 * kSecond;
  params.min_down = 5 * kSecond;
  params.max_down = 15 * kSecond;
  const ChaosPlan plan = MakeRandomPlan(3, params, crashable, flappable);
  int injected = 0, repaired = 0;
  ChaosInjector::Hooks hooks = domain.ChaosHooks();
  hooks.observer = [&](const ChaosEvent&, bool begin) {
    begin ? ++injected : ++repaired;
  };
  ChaosInjector injector(sim, std::move(hooks));
  injector.Arm(plan);

  sim.RunUntil(plan.LastRepairTime());
  EXPECT_EQ(injected, 12);
  EXPECT_EQ(repaired, 12);

  const auto clean =
      analysis::RunUntilInvariantsHold(domain, sim.Now() + 180 * kSecond);
  ASSERT_TRUE(clean.has_value());
  // Every member LAN is served again after the full schedule.
  auto& src = domain.AddHost(topo.router_lans[0], "src");
  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  for (HostAgent* m : members) EXPECT_GE(m->ReceivedCount(kGroup), 1u);
}

}  // namespace
}  // namespace cbt::core
