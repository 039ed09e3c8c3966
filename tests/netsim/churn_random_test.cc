// Seeded randomized churn harness: thousands of join/leave/send/flap/
// restart operations against a CbtDomain, with the whole-domain invariant
// auditor required to come up clean at every quiesce point. This
// foregrounds the dynamic-membership workloads of the multicast
// evaluation literature (Cho & Breen): the tree must stay structurally
// sound no matter how members come and go, and the event-engine rebuild
// must not change that.
//
// The same harness also runs under the space-parallel PDES runtime
// (exec/pdes/) at several shard and worker-thread counts: every quiesce
// point must still audit clean, the sharded runs must agree with each
// other exactly, and the converged tree structure must match the classic
// serial engine (whose event interleaving — and thus message counts —
// legitimately differs; see the determinism notes in pdes/runtime.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "cbt/domain.h"
#include "common/random.h"
#include "exec/pdes/runtime.h"
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

/// Converged end-of-run structure: per-group on-tree router sets and
/// confirmed member-host sets (both sorted) plus the total FIB state.
/// Purely protocol state — no timing, no message counts — so it is
/// comparable across event engines.
struct ChurnOutcome {
  std::map<int, std::vector<std::uint32_t>> on_tree;
  std::map<int, std::vector<std::uint32_t>> members;    // host IsMember
  std::map<int, std::vector<std::uint32_t>> confirmed;  // host JoinConfirmed
  std::size_t fib_state = 0;
  int quiesce_points = 0;

  bool operator==(const ChurnOutcome&) const = default;
};

/// One full churn run. `shards` 0 = classic serial engine; otherwise the
/// PDES runtime with `threads` forced worker threads (so the window
/// barriers run even on single-core machines). The op schedule is drawn
/// from a private Rng, so it is identical across engines.
void RunChurn(std::uint64_t seed, int shards, int threads,
              ChurnOutcome* out) {
  Simulator sim(seed);
  netsim::WaxmanParams wp;
  wp.n = 16;
  wp.seed = seed * 13 + 5;
  Topology topo = netsim::MakeWaxman(sim, wp);
  // Outlives the domain: timer dtors cancel through the backend.
  std::unique_ptr<exec::pdes::Runtime> pdes;
  CbtDomain domain(sim, topo, TightConfig(), TightIgmp());
  if (shards > 0) {
    pdes = std::make_unique<exec::pdes::Runtime>(sim, shards, threads);
    pdes->Install();
    domain.ShardRoutes(pdes->region_count(),
                       [&pdes](NodeId id) { return pdes->RegionOf(id); });
  }
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
  int quiesce_points = 0;

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
      ++quiesce_points;
    }
  }

  out->quiesce_points = quiesce_points;
  out->fib_state = domain.TotalFibState();
  for (int g = 0; g < kGroups; ++g) {
    std::vector<std::uint32_t> routers;
    for (const NodeId id : domain.OnTreeRouters(GroupAddr(g))) {
      routers.push_back(id.value());
    }
    std::sort(routers.begin(), routers.end());
    out->on_tree[g] = std::move(routers);
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> confirmed;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (hosts[i]->IsMember(GroupAddr(g))) {
        members.push_back(static_cast<std::uint32_t>(i));
      }
      if (hosts[i]->JoinConfirmed(GroupAddr(g))) {
        confirmed.push_back(static_cast<std::uint32_t>(i));
      }
    }
    out->members[g] = std::move(members);
    out->confirmed[g] = std::move(confirmed);
  }
}

class RandomChurn : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurn,
                         ::testing::Values(2, 13, 31, 47, 71));

TEST_P(RandomChurn, AuditorCleanAtEveryQuiesce) {
  ChurnOutcome outcome;
  RunChurn(GetParam(), /*shards=*/0, /*threads=*/0, &outcome);
  EXPECT_EQ(outcome.quiesce_points, kOps / kOpsPerQuiesce);
}

TEST_P(RandomChurn, ShardedRunsAgreeAndMatchSerialStructure) {
  const std::uint64_t seed = GetParam();
  ChurnOutcome serial;
  RunChurn(seed, /*shards=*/0, /*threads=*/0, &serial);
  ASSERT_EQ(serial.quiesce_points, kOps / kOpsPerQuiesce);

  ChurnOutcome one_region;
  RunChurn(seed, /*shards=*/1, /*threads=*/1, &one_region);
  ChurnOutcome four_regions;
  RunChurn(seed, /*shards=*/4, /*threads=*/2, &four_regions);

  // Sharded runs must agree with each other exactly — region count and
  // worker-thread count are not allowed to change anything.
  EXPECT_EQ(one_region, four_regions);
  // Against the serial engine the comparison is structural, not exact:
  // the op schedule (and hence the host-side membership history) is
  // identical, so the member sets must match — but branch geometry (and
  // with it the on-tree sets, FIB totals, even which in-flight join
  // confirmations beat a leave) may legitimately differ, because event
  // interleaving is engine-specific (different tie rule, different RNG
  // streams; see pdes/runtime.h). Both outcomes audit clean for the
  // same membership at every quiesce point.
  EXPECT_EQ(one_region.members, serial.members);
  EXPECT_EQ(one_region.quiesce_points, serial.quiesce_points);
  // Every group with members must have a tree in both engines.
  for (int g = 0; g < kGroups; ++g) {
    if (!serial.members.at(g).empty()) {
      EXPECT_FALSE(one_region.on_tree.at(g).empty()) << "group " << g;
    }
  }
}

}  // namespace
}  // namespace cbt::core
