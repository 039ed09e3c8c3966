// Experiment E4 — traffic concentration.
//
// The classic shared-tree criticism the SIGCOMM'93 paper quantifies: all
// of a group's traffic crosses the one shared tree, concentrating load on
// its links (especially near the core), whereas per-source trees spread
// load across the graph. Every member sends one packet; we report the
// peak per-link load and the size of the loaded link set.
//
// Expected shape: shared-tree peak ~= number of senders (every sender's
// packet crosses every tree link); SPT peak noticeably lower; SPT spreads
// over more distinct links. A centre core does not fix concentration —
// that is inherent to the single tree.
#include <algorithm>
#include <iostream>
#include <vector>

#include "analysis/table.h"
#include "bench_util.h"
#include "analysis/tree_metrics.h"
#include "baselines/dvmrp_domain.h"
#include "baselines/rp_tree_domain.h"
#include "cbt/core_selection.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"
#include "routing/route_manager.h"

namespace {

using namespace cbt;  // NOLINT

constexpr int kRouters = 100;
constexpr int kSeeds = 5;

struct LoadSummary {
  double peak = 0;
  double mean_nonzero = 0;
  double loaded_links = 0;
};

LoadSummary Summarize(const std::map<std::pair<NodeId, NodeId>, int>& load) {
  LoadSummary s;
  double total = 0;
  for (const auto& [edge, packets] : load) {
    s.peak = std::max(s.peak, (double)packets);
    total += packets;
  }
  s.loaded_links = (double)load.size();
  s.mean_nonzero = load.empty() ? 0 : total / (double)load.size();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  cbt::bench::Options opts("traffic_concentration",
                           "E4: link-load concentration across schemes");
  opts.Parse(argc, argv);
  cbt::bench::Harness harness(opts);
  const bool csv = opts.csv;

  analysis::Table first_table({""});
  analysis::Table first_live({""});
  const int rc = harness.Repeat([&](cbt::exec::RunContext& ctx) -> int {
  std::ostream& out = ctx.out;
  out << "E4: traffic concentration (all members send one packet) — "
               "Waxman n="
            << kRouters << ", " << kSeeds << " seeds\n\n";

  analysis::Table table({"members", "scheme", "peak link load",
                         "mean load", "loaded links"});

  for (const int members : {10, 20, 40}) {
    LoadSummary shared_centre{}, shared_random{}, unidir{}, spt{};
    for (int s = 0; s < kSeeds; ++s) {
      netsim::Simulator sim(1);
      netsim::WaxmanParams params;
      params.n = kRouters;
      params.seed = 300 + static_cast<std::uint64_t>(s);
      netsim::Topology topo = netsim::MakeWaxman(sim, params);
      routing::RouteManager routes(sim);
      Rng rng(13 * static_cast<std::uint64_t>(s) + 1);

      std::vector<NodeId> member_routers;
      for (const std::size_t idx : rng.SampleWithoutReplacement(
               topo.routers.size(), (std::size_t)members)) {
        member_routers.push_back(topo.routers[idx]);
      }

      core_selection::PlacementInput in;
      in.routes = &routes;
      in.routers = topo.routers;
      in.rng = &rng;
      const NodeId centre =
          core_selection::MakeStrategy("centre")->Place(in, 1).cores.front();
      const NodeId random_core =
          core_selection::MakeStrategy("random")->Place(in, 1).cores.front();

      const auto t_centre =
          analysis::BuildSharedTree(routes, centre, member_routers);
      const auto t_random =
          analysis::BuildSharedTree(routes, random_core, member_routers);

      const auto acc = [&](LoadSummary& into, const LoadSummary& one) {
        into.peak += one.peak;
        into.mean_nonzero += one.mean_nonzero;
        into.loaded_links += one.loaded_links;
      };
      acc(shared_centre, Summarize(analysis::SharedTreeLinkLoad(
                             routes, t_centre, member_routers)));
      acc(shared_random, Summarize(analysis::SharedTreeLinkLoad(
                             routes, t_random, member_routers)));
      acc(unidir, Summarize(analysis::UnidirectionalSharedTreeLinkLoad(
                      routes, t_centre, member_routers)));
      acc(spt, Summarize(analysis::SourceTreesLinkLoad(routes, member_routers,
                                                       member_routers)));
    }
    const auto row = [&](const char* scheme, const LoadSummary& s2) {
      table.AddRow({analysis::Table::Num(members), scheme,
                    analysis::Table::Fixed(s2.peak / kSeeds, 1),
                    analysis::Table::Fixed(s2.mean_nonzero / kSeeds, 1),
                    analysis::Table::Fixed(s2.loaded_links / kSeeds, 1)});
    };
    row("shared/centre (bidir)", shared_centre);
    row("shared/random (bidir)", shared_random);
    row("unidir RP tree", unidir);
    row("per-source SPT", spt);
  }
  cbt::bench::Emit(table, csv, "E4 oracle link load", out);

  // ------------------------------------------------------------------
  // (b) Protocol-level confirmation: run the same workload through the
  // real routers on a 5x5 grid and read the per-subnet frame counters.
  // ------------------------------------------------------------------
  out << "\n(b) live-simulation confirmation — 5x5 grid, 8 members "
         "each sending 10 packets; peak frames on any one subnet\n\n";
  analysis::Table live({"scheme", "peak subnet frames", "total data frames"});
  enum class Scheme { kCbt, kDvmrp, kRpTree };
  const auto run_live = [&](Scheme scheme) {
    netsim::Simulator sim(3);
    netsim::Topology topo = netsim::MakeGrid(sim, 5, 5);
    const Ipv4Address group(239, 44, 0, 1);
    std::vector<core::HostAgent*> members;

    std::optional<core::CbtDomain> cbt;
    std::optional<baselines::DvmrpDomain> dvmrp;
    std::optional<baselines::RpTreeDomain> rptree;
    if (scheme == Scheme::kCbt) {
      cbt.emplace(sim, topo);
      cbt->RegisterGroup(group, {topo.routers[12]});
      cbt->Start();
    } else if (scheme == Scheme::kDvmrp) {
      dvmrp.emplace(sim, topo);
      dvmrp->Start();
    } else {
      rptree.emplace(sim, topo);
      rptree->RegisterGroup(group, topo.routers[12]);  // same RP as core
      rptree->Start();
    }
    sim.RunUntil(kSecond);
    Rng rng(21);
    for (const std::size_t idx :
         rng.SampleWithoutReplacement(topo.routers.size(), 8)) {
      auto& h = scheme == Scheme::kCbt
                    ? cbt->AddHost(topo.router_lans[idx],
                                   netsim::Numbered("m", idx))
                : scheme == Scheme::kDvmrp
                    ? dvmrp->AddHost(topo.router_lans[idx],
                                     netsim::Numbered("m", idx))
                    : rptree->AddHost(topo.router_lans[idx],
                                      netsim::Numbered("m", idx));
      if (scheme == Scheme::kCbt) {
        h.JoinGroup(group);
      } else {
        h.JoinGroupWithCores(group, {}, 0);
      }
      members.push_back(&h);
      sim.RunUntil(sim.Now() + 300 * kMillisecond);
    }
    sim.RunUntil(sim.Now() + 20 * kSecond);
    sim.ResetCounters();  // count only the data phase
    for (int round = 0; round < 10; ++round) {
      for (auto* m : members) {
        m->SendToGroup(group, std::vector<std::uint8_t>(64, 1));
      }
      sim.RunUntil(sim.Now() + kSecond);
    }
    sim.RunUntil(sim.Now() + 10 * kSecond);

    std::uint64_t peak = 0, total = 0;
    for (std::size_t si = 0; si < sim.subnet_count(); ++si) {
      const auto& counters =
          sim.subnet(SubnetId((std::int32_t)si)).counters;
      peak = std::max(peak, counters.frames_sent);
      total += counters.frames_sent;
    }
    const char* name = scheme == Scheme::kCbt ? "CBT shared tree (bidir)"
                       : scheme == Scheme::kDvmrp
                           ? "DVMRP flood-and-prune"
                           : "PIM-SM-shape RP tree (unidir)";
    live.AddRow({name, analysis::Table::Num(peak),
                 analysis::Table::Num(total)});
  };
  run_live(Scheme::kCbt);
  run_live(Scheme::kDvmrp);
  run_live(Scheme::kRpTree);
  cbt::bench::Emit(live, csv, "E4 live grid confirmation", out);
  out << "\n(the live CBT peak includes keepalive frames on the "
         "busiest tree link; DVMRP's total shows the flooding cost)\n";

  out << "\nExpected shape: bidirectional shared-tree peak == "
         "#senders regardless of core placement; the unidirectional "
         "(PIM-SM-shape) RP tree is strictly worse near the root "
         "(up-leg + down-leg); SPT peak clearly lower with load "
         "spread over more links — CBT's bidirectionality is the "
         "cheaper of the two shared-tree designs.\n";
  if (ctx.index == 0) {
    first_table = table;
    first_live = live;
  }
  return 0;
      });
  auto& report = harness.report();
  report.Param("routers", kRouters);
  report.Param("seeds", kSeeds);
  report.AddTable("oracle_link_load", first_table, "packets");
  report.AddTable("live_grid", first_live, "frames");
  return harness.Finish(rc);
}
