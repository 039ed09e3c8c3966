// Experiment E1 — router forwarding-state scaling.
//
// Reproduces the CBT paper's headline scaling claim: CBT keeps one FIB
// entry per group (O(G)) while flood-and-prune schemes keep per-source
// per-group state (O(S x G)) at essentially every router.
//
// Workload: Waxman graph, G groups, each with M member routers and S
// distinct senders. CBT builds trees by protocol joins; DVMRP state is
// driven by each sender transmitting one packet (state persists as prune
// records — that's the point).
//
// Expected shape: CBT total state grows with G (and member count), flat
// in S; DVMRP grows with G x S and touches every router.
#include <iostream>

#include "analysis/table.h"
#include "bench_util.h"
#include "baselines/dvmrp_domain.h"
#include "baselines/mospf_domain.h"
#include "cbt/core_selection.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace {

using namespace cbt;  // NOLINT

constexpr int kRouters = 60;
constexpr int kMembersPerGroup = 10;

Ipv4Address GroupAddress(int g) {
  return Ipv4Address(239, 1, static_cast<std::uint8_t>(g >> 8),
                     static_cast<std::uint8_t>(g & 0xFF));
}

struct Result {
  std::size_t total = 0;
  std::size_t max_per_router = 0;
  std::size_t routers_with_state = 0;
};

Result RunCbt(int groups, int senders, std::uint64_t seed) {
  netsim::Simulator sim(seed);
  netsim::WaxmanParams params;
  params.n = kRouters;
  params.seed = seed;
  netsim::Topology topo = netsim::MakeWaxman(sim, params);
  core::CbtDomain domain(sim, topo);
  domain.Start();
  sim.RunUntil(kSecond);

  Rng rng(seed * 7 + 1);
  for (int g = 0; g < groups; ++g) {
    const Ipv4Address group = GroupAddress(g);
    core_selection::PlacementInput in;
    in.routers = topo.routers;
    in.rng = &rng;
    const auto cores =
        core_selection::MakeStrategy("random")->Place(in, 1).cores;
    const auto core_addrs = domain.RegisterGroup(group, cores);
    // Member routers join via the protocol (their LANs are assumed to
    // have members; InitiateJoin is the D-DR acting on them).
    for (const std::size_t idx :
         rng.SampleWithoutReplacement(topo.routers.size(),
                                      kMembersPerGroup)) {
      domain.router(topo.routers[idx]).InitiateJoin(group, core_addrs);
    }
    // Senders: non-member senders create NO router state in CBT; data is
    // relayed to the core. Send one packet per sender to prove it.
    for (const std::size_t idx :
         rng.SampleWithoutReplacement(topo.routers.size(),
                                      (std::size_t)senders)) {
      auto& host = domain.AddHost(
          topo.router_lans[idx],
          netsim::Numbered(netsim::Numbered("s", g) + "_", idx));
      sim.RunUntil(sim.Now() + 100 * kMillisecond);
      host.SendToGroup(group, std::vector<std::uint8_t>{1});
    }
  }
  sim.RunUntil(sim.Now() + 30 * kSecond);

  Result r;
  for (const NodeId id : domain.router_ids()) {
    const std::size_t units = domain.router(id).fib().StateUnits();
    r.total += units;
    r.max_per_router = std::max(r.max_per_router, units);
    if (units > 0) ++r.routers_with_state;
  }
  return r;
}

Result RunDvmrp(int groups, int senders, std::uint64_t seed) {
  netsim::Simulator sim(seed);
  netsim::WaxmanParams params;
  params.n = kRouters;
  params.seed = seed;
  netsim::Topology topo = netsim::MakeWaxman(sim, params);
  baselines::DvmrpDomain domain(sim, topo);
  domain.Start();
  sim.RunUntil(kSecond);

  Rng rng(seed * 7 + 1);  // same membership/sender draws as the CBT run
  for (int g = 0; g < groups; ++g) {
    const Ipv4Address group = GroupAddress(g);
    rng.SampleWithoutReplacement(topo.routers.size(), 1);  // core draw
    for (const std::size_t idx :
         rng.SampleWithoutReplacement(topo.routers.size(),
                                      kMembersPerGroup)) {
      domain
          .AddHost(topo.router_lans[idx],
                   netsim::Numbered(netsim::Numbered("m", g) + "_", idx))
          .JoinGroupWithCores(group, {}, 0);
    }
    for (const std::size_t idx :
         rng.SampleWithoutReplacement(topo.routers.size(),
                                      (std::size_t)senders)) {
      auto& host = domain.AddHost(
          topo.router_lans[idx],
          netsim::Numbered(netsim::Numbered("s", g) + "_", idx));
      sim.RunUntil(sim.Now() + 100 * kMillisecond);
      host.SendToGroup(group, std::vector<std::uint8_t>{1});
    }
  }
  sim.RunUntil(sim.Now() + 30 * kSecond);

  Result r;
  for (const NodeId id : topo.routers) {
    const std::size_t units = domain.router(id).StateUnits();
    r.total += units;
    r.max_per_router = std::max(r.max_per_router, units);
    if (units > 0) ++r.routers_with_state;
  }
  return r;
}

Result RunMospf(int groups, int senders, std::uint64_t seed) {
  netsim::Simulator sim(seed);
  netsim::WaxmanParams params;
  params.n = kRouters;
  params.seed = seed;
  netsim::Topology topo = netsim::MakeWaxman(sim, params);
  baselines::MospfDomain domain(sim, topo);
  domain.Start();
  sim.RunUntil(kSecond);

  Rng rng(seed * 7 + 1);  // same draws as the other runs
  for (int g = 0; g < groups; ++g) {
    const Ipv4Address group = GroupAddress(g);
    rng.SampleWithoutReplacement(topo.routers.size(), 1);  // core draw
    for (const std::size_t idx :
         rng.SampleWithoutReplacement(topo.routers.size(),
                                      kMembersPerGroup)) {
      domain
          .AddHost(topo.router_lans[idx],
                   netsim::Numbered(netsim::Numbered("m", g) + "_", idx))
          .JoinGroupWithCores(group, {}, 0);
    }
    for (const std::size_t idx :
         rng.SampleWithoutReplacement(topo.routers.size(),
                                      (std::size_t)senders)) {
      auto& host = domain.AddHost(
          topo.router_lans[idx],
          netsim::Numbered(netsim::Numbered("s", g) + "_", idx));
      sim.RunUntil(sim.Now() + 100 * kMillisecond);
      host.SendToGroup(group, std::vector<std::uint8_t>{1});
    }
  }
  sim.RunUntil(sim.Now() + 30 * kSecond);

  Result r;
  for (const NodeId id : topo.routers) {
    const std::size_t units = domain.router(id).StateUnits();
    r.total += units;
    r.max_per_router = std::max(r.max_per_router, units);
    if (units > 0) ++r.routers_with_state;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cbt::bench::Options opts("state_scaling",
                           "E1: router state scaling vs DVMRP and MOSPF");
  opts.Parse(argc, argv);
  cbt::bench::Harness harness(opts);
  const bool csv = opts.csv;

  // --repeat replicas fan out over the --jobs pool; the workload is
  // deterministic, so every repetition prints the same tables (the
  // repeat knob exists for wall-clock sampling via BENCH_exec.json).
  analysis::Table first_table({""});
  const int rc = harness.Repeat([&](cbt::exec::RunContext& ctx) -> int {
        std::ostream& out = ctx.out;
        out << "E1: router state scaling — CBT shared tree vs DVMRP "
               "flood-and-prune vs MOSPF link-state\n"
            << "(Waxman n=" << kRouters << ", " << kMembersPerGroup
            << " member routers per group; state units = FIB entries + "
               "children / (S,G) entries + prune records)\n\n";

        analysis::Table table(
            {"groups", "senders", "CBT total", "CBT max/rtr", "CBT routers",
             "DVMRP total", "DVMRP routers", "MOSPF total", "MOSPF routers",
             "DVMRP/CBT"});
        for (const int groups : {4, 8, 16, 32}) {
          for (const int senders : {1, 4, 8}) {
            const Result cbt = RunCbt(groups, senders, 42);
            const Result dvmrp = RunDvmrp(groups, senders, 42);
            const Result mospf = RunMospf(groups, senders, 42);
            table.AddRow(
                {analysis::Table::Num(groups), analysis::Table::Num(senders),
                 analysis::Table::Num(cbt.total),
                 analysis::Table::Num(cbt.max_per_router),
                 analysis::Table::Num(cbt.routers_with_state),
                 analysis::Table::Num(dvmrp.total),
                 analysis::Table::Num(dvmrp.routers_with_state),
                 analysis::Table::Num(mospf.total),
                 analysis::Table::Num(mospf.routers_with_state),
                 analysis::Table::Fixed(
                     cbt.total > 0 ? static_cast<double>(dvmrp.total) /
                                         static_cast<double>(cbt.total)
                                   : 0.0)});
          }
        }
        cbt::bench::Emit(table, csv, "E1 state scaling", out);
        out << "\nExpected shape: CBT column flat in senders, linear in "
               "groups, held only by on-tree routers; DVMRP grows with "
               "groups x senders at every router; MOSPF holds membership "
               "knowledge (groups x member-routers) at EVERY router plus "
               "per-(S,G) cache on tree routers.\n";
        if (ctx.index == 0) first_table = table;
        return 0;
      });
  auto& report = harness.report();
  report.Param("routers", kRouters);
  report.Param("members_per_group", kMembersPerGroup);
  report.AddTable("state_scaling", first_table, "state units");
  return harness.Finish(rc);
}
