// Experiment E6 — steady-state control overhead.
//
// CBT's standing cost is the keepalive machinery (CBT-ECHO every 30s per
// parent link per group, section 9) — the -03 draft's new aggregation
// (section 8.4) collapses that to one echo per parent neighbour. DVMRP's
// standing cost is periodic re-flood + prune after every prune lifetime.
//
// Workload: 5x5 grid, G groups with 8 member routers each, one low-rate
// sender per group, observed for 10 simulated minutes of steady state.
//
// Expected shape: CBT overhead linear in groups without aggregation,
// ~flat with aggregation; DVMRP overhead driven by data re-flood events
// (and its per-(S,G) prune state).
#include <iostream>

#include "analysis/table.h"
#include "bench_util.h"
#include "baselines/dvmrp_domain.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace {

using namespace cbt;  // NOLINT

constexpr int kMembersPerGroup = 8;
constexpr SimDuration kObservation = 600 * kSecond;

Ipv4Address GroupAddress(int g) {
  return Ipv4Address(239, 2, 0, static_cast<std::uint8_t>(g + 1));
}

std::uint64_t RunCbt(int groups, bool aggregate) {
  netsim::Simulator sim(5);
  netsim::Topology topo = netsim::MakeGrid(sim, 5, 5);
  core::CbtConfig config;
  config.aggregate_echo = aggregate;
  core::CbtDomain domain(sim, topo, config);
  domain.Start();
  sim.RunUntil(kSecond);

  Rng rng(99);
  for (int g = 0; g < groups; ++g) {
    const Ipv4Address group = GroupAddress(g);
    const auto core_addrs =
        domain.RegisterGroup(group, {topo.routers[12]});  // grid centre
    for (const std::size_t idx : rng.SampleWithoutReplacement(
             topo.routers.size(), kMembersPerGroup)) {
      domain.router(topo.routers[idx]).InitiateJoin(group, core_addrs);
    }
  }
  sim.RunUntil(10 * kSecond);  // trees settle

  // Count only steady-state messages.
  const std::uint64_t before = domain.TotalControlMessages();
  sim.RunUntil(sim.Now() + kObservation);
  return domain.TotalControlMessages() - before;
}

std::uint64_t RunDvmrp(int groups, std::uint64_t* data_transmissions) {
  netsim::Simulator sim(5);
  netsim::Topology topo = netsim::MakeGrid(sim, 5, 5);
  baselines::DvmrpDomain domain(sim, topo);
  domain.Start();
  sim.RunUntil(kSecond);

  Rng rng(99);
  std::vector<core::HostAgent*> senders;
  std::vector<Ipv4Address> sender_groups;
  for (int g = 0; g < groups; ++g) {
    const Ipv4Address group = GroupAddress(g);
    rng.SampleWithoutReplacement(topo.routers.size(), 1);
    for (const std::size_t idx : rng.SampleWithoutReplacement(
             topo.routers.size(), kMembersPerGroup)) {
      domain
          .AddHost(topo.router_lans[idx],
                   netsim::Numbered(netsim::Numbered("m", g) + "_", idx))
          .JoinGroupWithCores(group, {}, 0);
    }
    senders.push_back(&domain.AddHost(topo.router_lans[(std::size_t)g % 25],
                                      netsim::Numbered("s", g)));
    sender_groups.push_back(group);
  }
  sim.RunUntil(10 * kSecond);

  const std::uint64_t before = domain.TotalControlMessages();
  std::uint64_t data_before = 0;
  // One packet per group every 60s: each prune-lifetime expiry (120s)
  // re-floods the whole grid.
  for (SimDuration t = 0; t < kObservation; t += 60 * kSecond) {
    sim.Schedule(t, [&senders, &sender_groups] {
      for (std::size_t i = 0; i < senders.size(); ++i) {
        senders[i]->SendToGroup(sender_groups[i],
                                std::vector<std::uint8_t>{1});
      }
    });
  }
  for (const NodeId r : topo.routers) {
    data_before += domain.router(r).stats().data_forwarded;
  }
  sim.RunUntil(sim.Now() + kObservation);
  std::uint64_t data_after = 0;
  for (const NodeId r : topo.routers) {
    data_after += domain.router(r).stats().data_forwarded;
  }
  *data_transmissions = data_after - data_before;
  return domain.TotalControlMessages() - before;
}

}  // namespace

int main(int argc, char** argv) {
  cbt::bench::Options opts("control_overhead",
                           "E6: steady-state control overhead vs DVMRP");
  opts.Parse(argc, argv);
  cbt::bench::Harness harness(opts);
  const bool csv = opts.csv;

  analysis::Table first_table({""});
  const int rc = harness.Repeat([&](cbt::exec::RunContext& ctx) -> int {
  std::ostream& out = ctx.out;
  out << "E6: steady-state control overhead — 5x5 grid, "
            << kMembersPerGroup << " member routers/group, 10 minutes\n"
            << "(CBT: echo keepalives; DVMRP: prunes+grafts, plus the "
               "data re-flood transmissions its design incurs; senders "
               "send 1 pkt/group/min)\n\n";

  analysis::Table table({"groups", "CBT msgs", "CBT msgs (aggregated echo)",
                         "DVMRP ctl msgs", "DVMRP data txs"});
  for (const int groups : {1, 4, 16, 32}) {
    const std::uint64_t plain = RunCbt(groups, false);
    const std::uint64_t agg = RunCbt(groups, true);
    std::uint64_t dvmrp_data = 0;
    const std::uint64_t dvmrp = RunDvmrp(groups, &dvmrp_data);
    table.AddRow({analysis::Table::Num(groups), analysis::Table::Num(plain),
                  analysis::Table::Num(agg), analysis::Table::Num(dvmrp),
                  analysis::Table::Num(dvmrp_data)});
  }
  cbt::bench::Emit(table, csv, "E6 control overhead", out);
  out << "\nExpected shape: CBT msgs grow ~linearly with groups; the "
         "aggregated column stays near the 1-group cost; DVMRP's "
         "row shows the re-flood data cost per-source trees pay "
         "for statelessness.\n";
  if (ctx.index == 0) first_table = table;
  return 0;
      });
  auto& report = harness.report();
  report.Param("members_per_group", kMembersPerGroup);
  report.AddTable("control_overhead", first_table, "msgs");
  return harness.Finish(rc);
}
