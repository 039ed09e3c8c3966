// Experiment E3 — delay penalty of the shared tree vs core placement.
//
// For every ordered member pair, the ratio of member-to-member delay
// along the shared tree to the unicast shortest-path delay. Per-source
// trees give ratio 1.0 from the sender by construction; the CBT
// architecture's argument is that a well-placed core keeps the shared
// tree's penalty small. Sweeps the placement strategies of
// cbt/core_selection.h (the paper leaves placement to "ongoing work").
//
// Expected shape: centre placement ~lowest mean ratio; random placement
// visibly worse (both mean and max); hash-over-candidates between the
// two; all ratios bounded by ~2 on average (the classic KMB/centre
// bound intuition).
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
constexpr int kMembers = 20;
constexpr int kSeeds = 5;

struct Accumulated {
  double mean = 0, max = 0;
};

}  // namespace

int main(int argc, char** argv) {
  cbt::bench::Options opts("delay_ratio",
                           "E3: shared-tree delay penalty vs core placement");
  opts.Parse(argc, argv);
  cbt::bench::Harness harness(opts);
  const bool csv = opts.csv;

  analysis::Table first_table({""});
  const int rc = harness.Repeat([&](cbt::exec::RunContext& ctx) -> int {
  std::ostream& out = ctx.out;
  out << "E3: shared-tree delay penalty vs core placement — Waxman n="
            << kRouters << ", " << kMembers << " members, " << kSeeds
            << " seeds\n(ratio = tree-path delay / unicast delay over all "
               "member pairs; SPT reference = 1.0)\n\n";

  analysis::Table table(
      {"placement", "mean ratio", "max ratio", "tree cost"});

  constexpr int kPlacements = 5;
  const char* names[kPlacements] = {"delay-centre", "hop-centre",
                                    "highest-degree", "hash(4 cands)",
                                    "random"};
  Accumulated acc[kPlacements];
  double cost[kPlacements] = {};
  double unidir_mean = 0, unidir_max = 0;

  for (int s = 0; s < kSeeds; ++s) {
    netsim::Simulator sim(1);
    netsim::WaxmanParams params;
    params.n = kRouters;
    params.seed = 200 + static_cast<std::uint64_t>(s);
    netsim::Topology topo = netsim::MakeWaxman(sim, params);
    routing::RouteManager routes(sim);
    Rng rng(31 * static_cast<std::uint64_t>(s) + 5);

    std::vector<NodeId> member_routers;
    for (const std::size_t idx : rng.SampleWithoutReplacement(
             topo.routers.size(), (std::size_t)kMembers)) {
      member_routers.push_back(topo.routers[idx]);
    }

    // Hash placement models per-group rotation over delay-centre
    // candidates; sample it across several group addresses.
    const Ipv4Address group(
        239, 77, 0, static_cast<std::uint8_t>(1 + s * 37));
    core_selection::PlacementInput in;
    in.sim = &sim;
    in.routes = &routes;
    in.routers = topo.routers;
    in.group = group;
    in.rng = &rng;
    const auto pick = [&](const char* strategy) {
      return core_selection::MakeStrategy(strategy)->Place(in, 1).cores.front();
    };
    core_selection::PlacementInput hash_in = in;
    hash_in.routers =
        core_selection::MakeStrategy("delay-centre")->Place(in, 4).cores;
    const NodeId cores[kPlacements] = {
        pick("delay-centre"),
        pick("centre"),
        pick("degree"),
        core_selection::MakeStrategy("hash")->Place(hash_in, 1).cores.front(),
        pick("random"),
    };

    for (int p = 0; p < kPlacements; ++p) {
      const auto tree =
          analysis::BuildSharedTree(routes, cores[p], member_routers);
      const auto ratio =
          analysis::SharedTreeDelayRatio(routes, tree, member_routers);
      acc[p].mean += ratio.mean_ratio;
      acc[p].max += ratio.max_ratio;
      cost[p] += (double)tree.Cost();
    }
    // Ablation: the unidirectional RP-tree variant on the best placement.
    const auto unidir_tree =
        analysis::BuildSharedTree(routes, cores[0], member_routers);
    const auto unidir = analysis::UnidirectionalTreeDelayRatio(
        routes, unidir_tree, member_routers);
    unidir_mean += unidir.mean_ratio;
    unidir_max += unidir.max_ratio;
  }

  for (int p = 0; p < kPlacements; ++p) {
    table.AddRow({names[p], analysis::Table::Fixed(acc[p].mean / kSeeds),
                  analysis::Table::Fixed(acc[p].max / kSeeds),
                  analysis::Table::Fixed(cost[p] / kSeeds, 1)});
  }
  table.AddRow({"unidir RP tree (delay-centre)",
                analysis::Table::Fixed(unidir_mean / kSeeds),
                analysis::Table::Fixed(unidir_max / kSeeds), "-"});
  table.AddRow({"SPT (reference)", "1.00", "1.00", "-"});
  cbt::bench::Emit(table, csv, "E3 delay ratio", out);
  out << "\nExpected shape: mean penalty ~2x unicast across all "
         "placements (consistent with the CBT-era finding that "
         "placement yields only modest differences on random "
         "graphs); delay-centre <= random in the mean, and the "
         "hash rotation over spread candidates pays the most. The "
         "large max ratios come from near-by member pairs forced "
         "via the core — the shared tree's inherent tail cost.\n";
  if (ctx.index == 0) first_table = table;
  return 0;
      });
  auto& report = harness.report();
  report.Param("routers", kRouters);
  report.Param("members", kMembers);
  report.Param("seeds", kSeeds);
  report.AddTable("delay_ratio", first_table);
  return harness.Finish(rc);
}
