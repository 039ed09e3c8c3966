// Seeded randomized churn harness: thousands of join/leave/send/flap/
// restart operations against a CbtDomain, with the whole-domain invariant
// auditor required to come up clean at every quiesce point. This
// foregrounds the dynamic-membership workloads of the multicast
// evaluation literature (Cho & Breen): the tree must stay structurally
// sound no matter how members come and go, and the event-engine rebuild
// must not change that.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/invariant_auditor.h"
#include "cbt/domain.h"
#include "common/random.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::Simulator;
using netsim::Topology;

constexpr int kOps = 2000;
constexpr int kOpsPerQuiesce = 250;
constexpr int kGroups = 3;

Ipv4Address GroupAddr(int g) {
  return Ipv4Address(239, 77, 0, static_cast<std::uint8_t>(g + 1));
}

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

igmp::IgmpConfig TightIgmp() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

/// One full churn run; counts the quiesce points that audited clean.
void RunChurn(std::uint64_t seed, int* quiesce_points) {
  Simulator sim(seed);
  netsim::WaxmanParams wp;
  wp.n = 16;
  wp.seed = seed * 13 + 5;
  Topology topo = netsim::MakeWaxman(sim, wp);
  CbtDomain domain(sim, topo, TightConfig(), TightIgmp());
  Rng rng(seed * 1009 + 3);

  for (int g = 0; g < kGroups; ++g) {
    // Distinct cores per group so churn exercises several trees at once.
    const NodeId core =
        topo.routers[rng.NextBelow(topo.routers.size())];
    domain.RegisterGroup(GroupAddr(g), {core});
  }
  domain.Start();
  sim.RunUntil(kSecond);

  std::vector<HostAgent*> hosts;
  for (std::size_t i = 0; i < topo.router_lans.size(); ++i) {
    hosts.push_back(
        &domain.AddHost(topo.router_lans[i], netsim::Numbered("h", i)));
  }

  analysis::InvariantAuditor auditor(domain);
  std::vector<SubnetId> flapped;

  for (int op = 1; op <= kOps; ++op) {
    const std::uint64_t dice = rng.NextBelow(100);
    const std::size_t h = rng.NextBelow(hosts.size());
    const int g = static_cast<int>(rng.NextBelow(kGroups));
    if (dice < 35) {
      hosts[h]->JoinGroup(GroupAddr(g));
    } else if (dice < 55) {
      hosts[h]->LeaveGroup(GroupAddr(g));
    } else if (dice < 75) {
      hosts[h]->SendToGroup(GroupAddr(g), std::vector<std::uint8_t>{0xcc});
    } else if (dice < 85) {
      const SubnetId victim(
          static_cast<std::int32_t>(rng.NextBelow(sim.subnet_count())));
      sim.SetSubnetUp(victim, false);
      flapped.push_back(victim);
    } else if (dice < 95 && !flapped.empty()) {
      sim.SetSubnetUp(flapped.back(), true);
      flapped.pop_back();
    } else {
      const NodeId victim =
          topo.routers[rng.NextBelow(topo.routers.size())];
      domain.router(victim).SimulateRestart();
    }
    sim.RunUntil(sim.Now() + kSecond +
                 static_cast<SimDuration>(rng.NextBelow(2 * kSecond)));

    if (op % kOpsPerQuiesce == 0 || op == kOps) {
      // Quiesce: heal every outstanding fault and demand full structural
      // convergence before churn resumes.
      for (const SubnetId s : flapped) sim.SetSubnetUp(s, true);
      flapped.clear();
      const auto clean =
          analysis::RunUntilInvariantsHold(domain, sim.Now() + 300 * kSecond);
      ASSERT_TRUE(clean.has_value())
          << "seed " << seed << " op " << op << " never converged:\n"
          << auditor.Audit().Summary();
      const analysis::AuditReport report = auditor.Audit();
      ASSERT_TRUE(report.Clean())
          << "seed " << seed << " op " << op << ":\n" << report.Summary();
      ++*quiesce_points;
    }
  }
}

class RandomChurn : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurn,
                         ::testing::Values(2, 13, 31, 47, 71));

TEST_P(RandomChurn, AuditorCleanAtEveryQuiesce) {
  int quiesce_points = 0;
  RunChurn(GetParam(), &quiesce_points);
  EXPECT_EQ(quiesce_points, kOps / kOpsPerQuiesce);
}

}  // namespace
}  // namespace cbt::core
