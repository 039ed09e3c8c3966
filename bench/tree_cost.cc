// Experiment E2 — tree cost: shared tree vs per-source shortest-path
// trees as group size grows.
//
// The SIGCOMM'93 evaluation's figure family: total links consumed by one
// CBT shared tree versus (a) a single source's SPT and (b) the union of
// all senders' SPTs (what per-source schemes actually install).
//
// Expected shape: one shared tree costs about the same as one SPT
// (slightly more links than the best single SPT at small member counts);
// aggregate per-source cost grows ~linearly with the number of senders,
// while the shared tree is paid once.
#include <iostream>

#include "analysis/table.h"
#include "bench_util.h"
#include "analysis/tree_metrics.h"
#include "cbt/core_selection.h"
#include "netsim/topologies.h"
#include "routing/route_manager.h"

namespace {

using namespace cbt;  // NOLINT

constexpr int kRouters = 100;
constexpr int kSeeds = 5;

}  // namespace

int main(int argc, char** argv) {
  cbt::bench::Options opts("tree_cost",
                           "E2: shared-tree vs per-source tree cost");
  opts.Parse(argc, argv);
  cbt::bench::Harness harness(opts);
  const bool csv = opts.csv;

  analysis::Table first_table({""});
  const int rc = harness.Repeat([&](cbt::exec::RunContext& ctx) -> int {
  std::ostream& out = ctx.out;
  out << "E2: tree cost (links) vs group size — Waxman n=" << kRouters
            << ", averaged over " << kSeeds << " seeds\n"
            << "(senders = members; 'SPT union' is the per-source state a "
               "DVMRP-like scheme installs)\n\n";

  analysis::Table table({"members", "shared(centre)", "shared(random)",
                         "single SPT", "SPT union", "union/shared"});

  for (const int members : {5, 10, 20, 40, 80}) {
    double shared_centre = 0, shared_random = 0, single_spt = 0, union_spt = 0;
    for (int s = 0; s < kSeeds; ++s) {
      netsim::Simulator sim(1);
      netsim::WaxmanParams params;
      params.n = kRouters;
      params.seed = 100 + static_cast<std::uint64_t>(s);
      netsim::Topology topo = netsim::MakeWaxman(sim, params);
      routing::RouteManager routes(sim);
      Rng rng(7 * static_cast<std::uint64_t>(s) + 3);

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

      shared_centre += (double)analysis::BuildSharedTree(routes, centre,
                                                         member_routers)
                           .Cost();
      shared_random += (double)analysis::BuildSharedTree(routes, random_core,
                                                         member_routers)
                           .Cost();
      single_spt += (double)analysis::BuildSourceTree(
                        routes, member_routers.front(), member_routers)
                        .Cost();

      // Union of all members' source trees (every member may send).
      std::set<std::pair<NodeId, NodeId>> union_edges;
      for (const NodeId sender : member_routers) {
        const auto tree =
            analysis::BuildSourceTree(routes, sender, member_routers);
        const auto edges = tree.Edges();
        union_edges.insert(edges.begin(), edges.end());
      }
      union_spt += (double)union_edges.size();
    }
    shared_centre /= kSeeds;
    shared_random /= kSeeds;
    single_spt /= kSeeds;
    union_spt /= kSeeds;
    table.AddRow({analysis::Table::Num(members),
                  analysis::Table::Fixed(shared_centre, 1),
                  analysis::Table::Fixed(shared_random, 1),
                  analysis::Table::Fixed(single_spt, 1),
                  analysis::Table::Fixed(union_spt, 1),
                  analysis::Table::Fixed(union_spt / shared_centre)});
  }
  cbt::bench::Emit(table, csv, "E2 tree cost", out);
  out << "\nExpected shape: shared-tree cost tracks a single SPT "
         "(within ~1.2x); the per-source union costs several times "
         "more links and the gap widens with group size.\n";
  if (ctx.index == 0) first_table = table;
  return 0;
      });
  auto& report = harness.report();
  report.Param("routers", kRouters);
  report.Param("seeds", kSeeds);
  report.AddTable("tree_cost", first_table, "links");
  return harness.Finish(rc);
}
