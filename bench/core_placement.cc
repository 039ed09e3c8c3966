// Experiment E11 — multi-core placement quality and live core migration.
//
// Sweeps every registry strategy (cbt/core_selection.h) across k = 1, 2,
// 4 active cores on a Waxman internet and scores the resulting k-rooted
// forest (analysis::BuildMultiCoreTree) on the axes the multi-core
// literature argues about:
//
//   * delay ratio   — member-pair tree delay / unicast delay (E3's
//                     penalty metric, here per (strategy, k));
//   * delay variation — the spread (max - min) of serving-core ->
//                     member delivery delays, the constraint arXiv
//                     1303.4771's VNS placement bounds and arXiv
//                     1606.04928's locality clustering collapses by
//                     keeping every receiver near its assigned core;
//   * traffic concentration — peak per-link load when every member
//                     multicasts once (E4's metric);
//   * tree cost     — links in the forest.
//
// Then, per strategy, a live-simulation leg measures hitless migration:
// a running group (members joined, invariants clean) is re-homed onto a
// fresh core by analysis::CoreMigrator and the report's join->drain
// duration is the recovery time.
//
// Expected shape: at k=4 the partitioning strategies (locality, vns)
// beat every single-core placement on max delay variation — members sit
// close to their assigned core, so the spread collapses — while paying
// a modest tree-cost premium for the extra anchors. Random placement is
// the outlier on every axis.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "analysis/migration.h"
#include "analysis/table.h"
#include "analysis/tree_metrics.h"
#include "bench_util.h"
#include "cbt/core_selection.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"
#include "routing/route_manager.h"

namespace {

using namespace cbt;  // NOLINT

constexpr Ipv4Address kGroup(239, 11, 0, 1);

/// Multicast delay variation of the forest: the spread between the
/// largest and smallest serving-core -> member delivery delay along the
/// tree. This is the variation the delay-variation-constrained placement
/// literature bounds (arXiv 1303.4771's delta: receivers should hear the
/// core at similar times); a k-core partition collapses it by hanging
/// every receiver from a nearby anchor, while one distant core spreads
/// deliveries across the whole graph diameter. A single far-flung
/// receiver is exactly what the metric must expose, so no averaging.
SimDuration MaxDelayVariation(const analysis::Tree& tree,
                              const core_selection::Placement& placement,
                              const std::vector<NodeId>& members) {
  SimDuration lo = 0, hi = 0;
  bool any = false;
  for (std::size_t m = 0; m < members.size(); ++m) {
    std::size_t idx = m < placement.assignment.size()
                          ? placement.assignment[m]
                          : 0;
    if (idx >= placement.cores.size()) idx = 0;
    const NodeId core = placement.cores[idx];
    if (!tree.Contains(members[m]) || !tree.Contains(core)) continue;
    const SimDuration d = tree.DelayBetween(core, members[m]);
    if (!any) {
      lo = hi = d;
      any = true;
    } else {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
  }
  return any ? hi - lo : 0;
}

int PeakLinkLoad(routing::RouteManager& routes, const analysis::Tree& tree,
                 const std::vector<NodeId>& members) {
  int peak = 0;
  for (const auto& [link, load] :
       analysis::SharedTreeLinkLoad(routes, tree, members)) {
    peak = std::max(peak, load);
  }
  return peak;
}

}  // namespace

int main(int argc, char** argv) {
  cbt::bench::Options opts(
      "core_placement",
      "E11: multi-core placement quality and live core migration");
  opts.EnablePlacement();
  opts.Parse(argc, argv);
  const bool csv = opts.csv;

  const int routers = opts.smoke ? 64 : 256;
  const int members_n = opts.smoke ? 12 : 24;
  const int live_routers = opts.smoke ? 24 : 48;
  const int live_members = opts.smoke ? 4 : 8;
  const std::vector<std::size_t> ks = {1, 2, 4};

  std::vector<std::string> strategies;
  for (const std::string_view name : core_selection::StrategyNames()) {
    if (opts.placement.empty() || opts.placement == name) {
      strategies.emplace_back(name);
    }
  }
  if (strategies.empty()) {
    std::cerr << "bench_core_placement: unknown --placement '"
              << opts.placement << "'\n";
    return 2;
  }

  cbt::bench::Harness harness(opts);
  analysis::Table first_forest({""});
  analysis::Table first_migration({""});
  const int rc = harness.Repeat([&](cbt::exec::RunContext& ctx) -> int {
        std::ostream& out = ctx.out;
        out << "E11: multi-core placement — Waxman n=" << routers << ", "
            << members_n << " members, k in {1,2,4}, seed " << ctx.seed
            << "\n(variation = max - min serving-core->member delay; "
               "concentration = peak link load, one packet per member)\n\n";

        // ---- (a) Forest quality off the graph oracles ----------------
        netsim::Simulator sim(1);
        netsim::WaxmanParams params;
        params.n = routers;
        params.seed = 500 + ctx.seed;
        netsim::Topology topo = netsim::MakeWaxman(sim, params);
        routing::RouteManager routes(sim);
        Rng rng(41 * ctx.seed + 3);

        std::vector<NodeId> member_routers;
        for (const std::size_t idx : rng.SampleWithoutReplacement(
                 topo.routers.size(), (std::size_t)members_n)) {
          member_routers.push_back(topo.routers[idx]);
        }

        core_selection::PlacementInput in;
        in.sim = &sim;
        in.routes = &routes;
        in.routers = topo.routers;
        in.member_routers = member_routers;
        in.group = kGroup;
        in.rng = &rng;

        analysis::Table forest({"placement", "k", "mean ratio", "max ratio",
                                "variation (ms)", "peak link load",
                                "tree cost"});
        for (const std::string& name : strategies) {
          const auto strategy = core_selection::MakeStrategy(name);
          for (const std::size_t k : ks) {
            const core_selection::Placement placement =
                strategy->Place(in, k);
            const analysis::Tree tree = analysis::BuildMultiCoreTree(
                routes, placement.cores, member_routers,
                placement.assignment);
            const analysis::DelayRatio ratio =
                analysis::SharedTreeDelayRatio(routes, tree, member_routers);
            const SimDuration variation =
                MaxDelayVariation(tree, placement, member_routers);
            forest.AddRow(
                {name, analysis::Table::Num(k),
                 analysis::Table::Fixed(ratio.mean_ratio),
                 analysis::Table::Fixed(ratio.max_ratio),
                 analysis::Table::Fixed((double)variation / kMillisecond, 2),
                 analysis::Table::Num(
                     PeakLinkLoad(routes, tree, member_routers)),
                 analysis::Table::Num(tree.Cost())});
          }
        }
        cbt::bench::Emit(forest, csv, "E11 forest quality", out);

        // ---- (b) Live migration recovery per strategy ----------------
        // A real CbtDomain per strategy: members join the strategy's k=2
        // placement, then CoreMigrator re-homes the group onto the
        // delay-centre pick among the remaining routers. Recovery =
        // join-new -> drained, as reported by the migrator.
        out << "\nlive migration — Waxman n=" << live_routers << ", "
            << live_members
            << " members, k=2 placement re-homed onto a fresh core\n\n";
        analysis::Table migration(
            {"placement", "recovery (s)", "hitless", "audit-clean"});
        bool all_hitless = true;
        for (const std::string& name : strategies) {
          netsim::Simulator live_sim(2);
          netsim::WaxmanParams live_params;
          live_params.n = live_routers;
          live_params.seed = 900 + ctx.seed;
          netsim::Topology live_topo = netsim::MakeWaxman(live_sim, live_params);
          core::CbtDomain domain(live_sim, live_topo);
          Rng live_rng(7 * ctx.seed + 11);

          std::vector<NodeId> live_member_routers;
          std::vector<SubnetId> live_lans;
          for (const std::size_t idx : live_rng.SampleWithoutReplacement(
                   live_topo.routers.size(), (std::size_t)live_members)) {
            live_member_routers.push_back(live_topo.routers[idx]);
            live_lans.push_back(live_topo.router_lans[idx]);
          }

          core_selection::PlacementInput live_in;
          live_in.sim = &live_sim;
          live_in.routes = &domain.routes();
          live_in.routers = live_topo.routers;
          live_in.member_routers = live_member_routers;
          live_in.group = kGroup;
          live_in.rng = &live_rng;
          const core_selection::Placement placement =
              core_selection::MakeStrategy(name)->Place(live_in, 2);
          domain.RegisterGroup(kGroup, placement, live_lans);
          domain.Start();
          live_sim.RunUntil(kSecond);
          for (std::size_t i = 0; i < live_lans.size(); ++i) {
            domain.AddHost(live_lans[i], netsim::Numbered("m", i))
                .JoinGroup(kGroup);
          }
          live_sim.RunUntil(live_sim.Now() + 30 * kSecond);

          // The new core: best delay-centre site outside the old set.
          std::vector<NodeId> candidates;
          for (const NodeId r : live_topo.routers) {
            if (std::find(placement.cores.begin(), placement.cores.end(),
                          r) == placement.cores.end()) {
              candidates.push_back(r);
            }
          }
          core_selection::PlacementInput target_in = live_in;
          target_in.routers = candidates;
          const NodeId new_core = core_selection::MakeStrategy("delay-centre")
                                      ->Place(target_in, 1)
                                      .cores.front();

          analysis::CoreMigrator migrator(domain);
          const analysis::CoreMigrator::Report report =
              migrator.Migrate(kGroup, {new_core});
          const bool clean =
              analysis::InvariantAuditor(domain).Audit().Clean();
          all_hitless = all_hitless && report.ok && clean;
          migration.AddRow(
              {name,
               report.ok
                   ? analysis::Table::Fixed(
                         (double)report.Duration() / kSecond, 2)
                   : "-",
               analysis::Table::Num(report.ok ? 1 : 0),
               analysis::Table::Num(clean ? 1 : 0)});
        }
        cbt::bench::Emit(migration, csv, "E11 migration recovery", out);
        out << "\nExpected shape: locality/vns at k=4 post the lowest "
               "delay variation (each receiver hangs from a nearby "
               "core); single-core placements trade variation for tree "
               "cost; migration recovery is seconds — one join "
               "round-trip plus the management drain — and hitless for "
               "every placement.\n";

        if (ctx.index == 0) {
          first_forest = forest;
          first_migration = migration;
        }
        // A not-hitless migration (or dirty post-drain audit) is a
        // defect, not a data point: fail the run so CI sees it.
        return all_hitless ? 0 : 3;
      });

  auto& report = harness.report();
  report.Param("routers", routers);
  report.Param("members", members_n);
  report.Param("live_routers", live_routers);
  report.Param("live_members", live_members);
  report.Param("smoke", opts.smoke);
  report.Param("placement", opts.placement.empty() ? "all" : opts.placement);
  // Forest rows are keyed "strategy/k" so the JSON is self-labelling.
  analysis::Table keyed({"placement", "mean ratio", "max ratio",
                         "variation_ms", "peak_link_load", "tree_cost"});
  for (const auto& row : first_forest.rows()) {
    if (row.size() < 7) continue;
    keyed.AddRow({row[0] + "/k" + row[1], row[2], row[3], row[4], row[5],
                  row[6]});
  }
  report.AddTable("forest", keyed);
  report.AddTable("migration", first_migration);
  return harness.Finish(rc);
}
