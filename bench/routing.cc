// Unicast-routing microbenchmark: lazy scoped invalidation vs. the eager
// full recompute, and the LPM index vs. the linear subnet scan.
//
// Three workloads on a square router grid (256 routers in full mode):
//  * cold — first-touch cost of computing every per-source table;
//  * post-flap — the reconvergence path chaos soaks hammer: flap a random
//    backbone link, then answer a bounded set of route queries. Eager
//    recomputes every table per epoch batch; lazy recomputes only dirty
//    tables that are actually queried, so the "tables recomputed per
//    flap" ratio is the headline number;
//  * lookup — steady-state Lookup() throughput with the sorted-prefix LPM
//    index + address cache against the historical per-call linear scan.
//
// Every workload folds its answers into a checksum and the post-flap /
// lookup runs are executed under both strategies with identical seeds, so
// the bench doubles as a lazy==eager / indexed==linear differential.
// Results go to stdout and BENCH_routing.json (--json overrides;
// --smoke shrinks sizes for the CI correctness pass).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "netsim/simulator.h"
#include "netsim/topologies.h"
#include "routing/route_manager.h"

namespace {

using namespace cbt;  // NOLINT
using routing::RouteManager;

const char* ModeName(RouteManager::Mode mode) {
  return mode == RouteManager::Mode::kLazy ? "lazy" : "eager";
}

/// One benched run: what it did, how long it took, and what it computed.
struct RunResult {
  std::string name;
  std::uint64_t ops = 0;              // queries issued
  std::uint64_t tables_computed = 0;  // Dijkstra runs during the timed phase
  std::uint64_t tables_kept_warm = 0;
  double seconds = 0;
  std::uint64_t checksum = 0;
};

std::uint64_t FoldRoute(std::uint64_t checksum,
                        const std::optional<routing::Route>& route) {
  if (!route) return checksum * 31 + 1;
  checksum = checksum * 31 + route->next_hop.bits();
  checksum = checksum * 31 + static_cast<std::uint64_t>(route->vif + 1);
  checksum = checksum * 31 + static_cast<std::uint64_t>(route->hop_count);
  return checksum;
}

/// Point-to-point grid links (excludes the per-router stub LANs, matching
/// the chaos soak's flappable set).
std::vector<SubnetId> BackboneSubnets(const netsim::Simulator& sim,
                                      const netsim::Topology& topo) {
  std::vector<SubnetId> backbone;
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    if (std::find(topo.router_lans.begin(), topo.router_lans.end(), sid) ==
        topo.router_lans.end()) {
      backbone.push_back(sid);
    }
  }
  return backbone;
}

RunResult RunCold(RouteManager::Mode mode, int side) {
  netsim::Simulator sim(1);
  const netsim::Topology topo = netsim::MakeGrid(sim, side, side);
  RouteManager routes(sim, mode);

  RunResult r;
  r.name = std::string("cold_") + ModeName(mode);
  const auto start = std::chrono::steady_clock::now();
  for (const NodeId router : topo.routers) {
    r.checksum = r.checksum * 31 +
                 static_cast<std::uint64_t>(
                     routes.Distance(router, topo.routers.front()) + 0.5);
    ++r.ops;
  }
  const auto stop = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.tables_computed = routes.stats().tables_computed;
  return r;
}

/// Flap random backbone links; after each half-flap (down, then up) issue
/// `queried` route queries from random sources. This is the access pattern
/// of CBT rejoin/reconvergence: a bounded set of routers consults routing
/// right after a change.
RunResult RunPostFlap(RouteManager::Mode mode, int side, int flaps,
                      int queried) {
  netsim::Simulator sim(1);
  const netsim::Topology topo = netsim::MakeGrid(sim, side, side);
  RouteManager routes(sim, mode);
  const std::vector<SubnetId> backbone = BackboneSubnets(sim, topo);
  const std::size_t n = topo.routers.size();

  // Warm every table so the timed phase measures reconvergence, not
  // first-touch computation.
  for (const NodeId router : topo.routers) {
    routes.Distance(router, topo.routers.front());
  }
  routes.ResetStats();

  RunResult r;
  r.name = std::string("post_flap_") + ModeName(mode);
  Rng rng(99);  // identical query/flap schedule across modes
  const auto start = std::chrono::steady_clock::now();
  for (int f = 0; f < flaps; ++f) {
    const SubnetId victim = backbone[rng.NextBelow(backbone.size())];
    for (const bool up : {false, true}) {
      sim.SetSubnetUp(victim, up);
      for (int q = 0; q < queried; ++q) {
        const NodeId from = topo.routers[rng.NextBelow(n)];
        const Ipv4Address dest =
            sim.PrimaryAddress(topo.routers[rng.NextBelow(n)]);
        r.checksum = FoldRoute(r.checksum, routes.Lookup(from, dest));
        ++r.ops;
      }
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.tables_computed = routes.stats().tables_computed;
  r.tables_kept_warm = routes.stats().tables_kept_warm;
  return r;
}

RunResult RunLookup(RouteManager::LpmMode lpm, int side, std::uint64_t ops) {
  netsim::Simulator sim(1);
  const netsim::Topology topo = netsim::MakeGrid(sim, side, side);
  RouteManager routes(sim);
  routes.set_lpm_mode(lpm);
  const std::size_t n = topo.routers.size();

  std::vector<Ipv4Address> dests;
  dests.reserve(n);
  for (const NodeId router : topo.routers) {
    dests.push_back(sim.PrimaryAddress(router));
  }
  for (const NodeId router : topo.routers) {
    routes.Distance(router, topo.routers.front());  // warm tables
  }

  RunResult r;
  r.name = lpm == RouteManager::LpmMode::kIndexed ? "lookup_indexed"
                                                  : "lookup_linear";
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t op = 0; op < ops; ++op) {
    const NodeId from = topo.routers[op % n];
    const Ipv4Address dest = dests[(op * 7) % n];
    r.checksum = FoldRoute(r.checksum, routes.Lookup(from, dest));
  }
  const auto stop = std::chrono::steady_clock::now();
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  return r;
}

void PrintRow(const RunResult& r) {
  std::cout << "  " << r.name << ": " << r.ops << " queries in " << r.seconds
            << " s";
  if (r.tables_computed > 0 || r.tables_kept_warm > 0) {
    std::cout << ", " << r.tables_computed << " tables computed, "
              << r.tables_kept_warm << " kept warm";
  }
  std::cout << " (checksum " << r.checksum << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts("routing",
                      "routing microbench: lazy invalidation + LPM index");
  opts.json_path = "BENCH_routing.json";  // always reported
  // Timing microbench: parallel replicas would contend for cores and
  // distort the lazy-vs-eager wall-clock comparison, so the default is
  // the serial path; --jobs N opts in (the checksums stay identical).
  opts.jobs = 1;
  opts.Parse(argc, argv);
  bench::TraceSession trace(opts.trace_path);
  exec::Pool pool(opts.jobs);
  bench::ExecReport exec_report(opts.bench_name());
  const bool smoke = opts.smoke;

  // Full mode: a 16x16 grid = 256 routers, the ISSUE's scaling floor.
  const int side = smoke ? 8 : 16;
  const int flaps = smoke ? 6 : 40;
  const int queried = 16;
  const std::uint64_t lookups = smoke ? 50'000 : 2'000'000;

  std::cout << "Routing bench (" << (smoke ? "smoke" : "full") << "): "
            << side * side << " routers, " << flaps << " flaps x " << queried
            << " queries, " << lookups << " lookups\n";

  // The six workloads are independent replicas (each builds its own
  // simulator + grid); the reducer stores them back into the named
  // slots the report expects.
  std::vector<RunResult> runs(6);
  exec_report.Add(
      "workloads",
      exec::RunSweep(
          pool, runs.size(), bench::MakeSweepOptions(opts, trace),
          [&](exec::RunContext& ctx) -> RunResult {
            switch (ctx.index) {
              case 0: return RunCold(RouteManager::Mode::kLazy, side);
              case 1: return RunCold(RouteManager::Mode::kEager, side);
              case 2:
                return RunPostFlap(RouteManager::Mode::kLazy, side, flaps,
                                   queried);
              case 3:
                return RunPostFlap(RouteManager::Mode::kEager, side, flaps,
                                   queried);
              case 4:
                return RunLookup(RouteManager::LpmMode::kIndexed, side,
                                 lookups);
              default:
                return RunLookup(RouteManager::LpmMode::kLinearScan, side,
                                 lookups);
            }
          },
          [&](exec::RunContext& ctx, RunResult r) {
            runs[ctx.index] = std::move(r);
            trace.Adopt(std::move(ctx.trace));
          }));
  const RunResult& cold_lazy = runs[0];
  const RunResult& cold_eager = runs[1];
  const RunResult& flap_lazy = runs[2];
  const RunResult& flap_eager = runs[3];
  const RunResult& look_idx = runs[4];
  const RunResult& look_lin = runs[5];

  for (const RunResult& r :
       {cold_lazy, cold_eager, flap_lazy, flap_eager, look_idx, look_lin}) {
    PrintRow(r);
  }

  bool deterministic = true;
  for (const auto& [a, b] : {std::pair{&cold_lazy, &cold_eager},
                             {&flap_lazy, &flap_eager},
                             {&look_idx, &look_lin}}) {
    if (a->checksum != b->checksum) {
      deterministic = false;
      std::cout << "DIFFERENTIAL MISMATCH: " << a->name << " vs " << b->name
                << "\n";
    }
  }

  const double lazy_tables_per_flap =
      static_cast<double>(flap_lazy.tables_computed) / flaps;
  const double eager_tables_per_flap =
      static_cast<double>(flap_eager.tables_computed) / flaps;
  const double work_reduction =
      lazy_tables_per_flap > 0 ? eager_tables_per_flap / lazy_tables_per_flap
                               : 0;
  const double flap_speedup = flap_eager.seconds / flap_lazy.seconds;
  const double lookup_speedup = look_lin.seconds / look_idx.seconds;
  std::cout << "  post-flap tables/flap: eager " << eager_tables_per_flap
            << " vs lazy " << lazy_tables_per_flap << " => "
            << work_reduction << "x less work, " << flap_speedup
            << "x wall time\n"
            << "  lookup speedup (LPM vs linear scan): " << lookup_speedup
            << "x\n";

  bench::JsonReporter report(opts.bench_name());
  report.Param("mode", smoke ? "smoke" : "full");
  report.Param("routers", side * side);
  report.Param("deterministic", deterministic);
  auto& ops_series = report.AddSeries("ops", "queries");
  auto& secs_series = report.AddSeries("seconds", "s");
  auto& computed_series = report.AddSeries("tables_computed", "tables");
  auto& warm_series = report.AddSeries("tables_kept_warm", "tables");
  const RunResult* all[] = {&cold_lazy, &cold_eager, &flap_lazy,
                            &flap_eager, &look_idx,  &look_lin};
  for (const RunResult* r : all) {
    ops_series.Add(r->name, r->ops);
    secs_series.Add(r->name, r->seconds);
    computed_series.Add(r->name, r->tables_computed);
    warm_series.Add(r->name, r->tables_kept_warm);
  }
  auto& headline = report.AddSeries("headline", "x");
  headline.Add("post_flap_work_reduction", work_reduction);
  headline.Add("post_flap_time_speedup", flap_speedup);
  headline.Add("lookup_speedup", lookup_speedup);
  auto& per_flap = report.AddSeries("tables_per_flap", "tables");
  per_flap.Add("eager", eager_tables_per_flap);
  per_flap.Add("lazy", lazy_tables_per_flap);
  report.WriteFile(opts.json_path);
  exec_report.WriteIfRequested(opts);

  return deterministic ? 0 : 1;
}
