// Chaos soak — long randomized fault schedules vs. the tree invariants.
//
// For each topology in the sweep, build one group with two cores and a
// handful of member LANs, arm a seeded ChaosPlan (link flaps, router
// crash+restart with full CBT state loss, partitions) and drive steady
// data traffic throughout. After every fault's repair, the invariant
// auditor polls until the whole domain is structurally consistent again;
// the per-class recovery-time distribution (fault injection -> first
// clean audit) plus delivery/overhead totals make up the report.
//
// Everything is seeded: the same `--seed` reproduces the identical plan
// and a byte-identical report. `--events N` scales the schedule length,
// `--plan` dumps the schedule, `--csv` switches to CSV. `--routers N`
// replaces the default three-topology sweep with one ceil(sqrt(N))^2
// grid — the scaling mode used to size the event engine — and
// `--dataplane fast|slow` selects the forwarding path (the slow
// per-packet recompute survives as the fast path's differential oracle).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "cbt/domain.h"
#include "netsim/chaos.h"
#include "netsim/topologies.h"

namespace {

using namespace cbt;  // NOLINT

constexpr Ipv4Address kGroup(239, 9, 9, 9);
/// Give up polling a recovery this long after the fault is repaired.
constexpr SimDuration kRecoveryCap = 240 * kSecond;
constexpr SimDuration kSendPeriod = 2 * kSecond;

/// Timers tightened uniformly (spec section 9 notes they are per-
/// implementation) so hundreds of fault/repair cycles fit in a soak.
core::CbtConfig SoakCbtConfig() {
  core::CbtConfig config;
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

igmp::IgmpConfig SoakIgmpConfig() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

struct ClassStats {
  std::vector<double> recovery_s;  // fault injection -> first clean audit
  int stuck = 0;                   // never clean before cap / next fault
};

struct SoakResult {
  std::string topology;
  std::map<netsim::ChaosEventType, ClassStats> by_class;
  std::uint64_t sends = 0;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t malformed = 0;
  bool final_clean = false;
  double final_clean_at_s = -1;
  /// --check: the causal-path expectation report over this replica's
  /// trace ring (empty when checking is off or the replica has no ring).
  std::optional<check::CheckReport> check;
  /// Nonempty => the run aborted (warmup never converged). Replica jobs
  /// must not std::exit() from a worker thread, so the error rides back
  /// to main() in the result.
  std::string error;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[idx];
}

struct MemberPlan {
  std::vector<std::size_t> member_lans;  // member_lans[0] hosts the sender
  std::vector<NodeId> cores;             // primary first
};

SoakResult RunSoak(const std::string& name, netsim::Simulator& sim,
                   netsim::Topology& topo, const MemberPlan& members,
                   std::uint64_t seed, int event_count, bool dump_plan,
                   core::ProtocolMutation mutation,
                   core::DataplaneMode dataplane,
                   const bench::Harness& harness, std::ostream& out) {
  SoakResult result;
  result.topology = name;

  core::CbtConfig cbt_config = SoakCbtConfig();
  cbt_config.mutation = mutation;
  cbt_config.dataplane = dataplane;
  const bench::ShardedDomain sharded =
      harness.Domain(sim, topo, cbt_config, SoakIgmpConfig());
  core::CbtDomain& domain = *sharded.domain;
  domain.RegisterGroup(kGroup, members.cores);
  domain.Start();
  sim.RunUntil(kSecond);

  std::vector<core::HostAgent*> hosts;
  for (const std::size_t lan : members.member_lans) {
    hosts.push_back(&domain.AddHost(topo.router_lans[lan],
                                    netsim::Numbered("m", lan)));
    hosts.back()->JoinGroup(kGroup);
  }

  // Chaos targets: every router except the cores (core placement is an
  // operator decision; core-failure takeover has its own experiment, E7),
  // and every backbone subnet (member stub LANs stay up).
  std::vector<NodeId> crashable;
  for (const NodeId id : topo.routers) {
    if (std::find(members.cores.begin(), members.cores.end(), id) ==
        members.cores.end()) {
      crashable.push_back(id);
    }
  }
  std::vector<SubnetId> flappable;
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    if (std::find(topo.router_lans.begin(), topo.router_lans.end(), sid) ==
        topo.router_lans.end()) {
      flappable.push_back(sid);
    }
  }

  netsim::ChaosPlanParams params;
  params.event_count = event_count;
  params.start = 90 * kSecond;
  params.min_gap = 60 * kSecond;
  params.max_gap = 120 * kSecond;
  params.min_down = 5 * kSecond;
  params.max_down = 20 * kSecond;
  const netsim::ChaosPlan plan =
      netsim::MakeRandomPlan(seed, params, crashable, flappable);
  if (dump_plan) out << plan.Describe() << "\n";

  netsim::ChaosInjector injector(sim, domain.ChaosHooks());
  injector.Arm(plan);

  // Steady traffic from the first member for the whole soak.
  const SimTime traffic_end = plan.LastRepairTime() + kRecoveryCap;
  for (SimTime t = 30 * kSecond; t < traffic_end; t += kSendPeriod) {
    sim.ScheduleAt(t, [&hosts] {
      hosts[0]->SendToGroup(kGroup, std::vector<std::uint8_t>{0xda});
    });
    ++result.sends;
  }
  result.expected = result.sends * (hosts.size() - 1);

  // Let the tree build, then demand a clean baseline before any fault.
  analysis::InvariantAuditor auditor(domain);
  if (!analysis::RunUntilInvariantsHold(domain, params.start - kSecond)) {
    result.error = "warmup never converged:\n" + auditor.Audit().Summary();
    return result;
  }

  // Drive fault -> repair -> converge for every event. Gaps are sized so
  // recovery normally completes before the next fault; if it does not
  // (or the cap expires) the event counts as stuck instead of skewing
  // the distribution.
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const netsim::ChaosEvent& e = plan.events[i];
    sim.RunUntil(e.repair_at());
    SimTime deadline = e.repair_at() + kRecoveryCap;
    if (i + 1 < plan.events.size()) {
      deadline = std::min(deadline, plan.events[i + 1].at - kSecond);
    }
    ClassStats& stats = result.by_class[e.type];
    if (const auto clean = analysis::RunUntilInvariantsHold(domain, deadline)) {
      stats.recovery_s.push_back(static_cast<double>(*clean - e.at) / kSecond);
    } else {
      ++stats.stuck;
    }
  }

  // Final convergence: everything repaired, nothing left but timers.
  const auto final_clean =
      analysis::RunUntilInvariantsHold(domain, sim.Now() + kRecoveryCap);
  result.final_clean = final_clean.has_value();
  if (final_clean) {
    result.final_clean_at_s = static_cast<double>(*final_clean) / kSecond;
  }
  sim.RunUntil(traffic_end);

  for (std::size_t i = 1; i < hosts.size(); ++i) {
    result.delivered += hosts[i]->ReceivedCount(kGroup);
  }
  result.control_messages = domain.TotalControlMessages();
  for (const NodeId id : domain.router_ids()) {
    result.malformed += domain.router(id).stats().malformed_control;
  }

  // Post-hoc behavioural validation of this replica's trace ring.
  result.check = harness.CheckReplica(sim, cbt_config);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts("chaos_soak",
                      "randomized fault schedules vs the tree invariants");
  bool dump_plan = false;
  int event_count = 100;
  int routers = 0;  // 0 = default three-topology sweep
  std::string check_json;
  std::string mutate_name;
  opts.Flag("plan", &dump_plan, "dump the generated chaos schedule");
  opts.Int("events", &event_count, "fault events per topology");
  opts.Int("routers", &routers,
           "scaling mode: one ~N-router grid instead of the sweep");
  opts.EnableCheck();
  opts.Str("check-json", &check_json,
           "write the merged expectation report to FILE (implies --check)");
  opts.Str("mutate", &mutate_name,
           "seed a protocol defect for checker validation: suppress-flush");
  std::string dataplane_name = "fast";
  opts.Str("dataplane", &dataplane_name,
           "forwarding path: fast (flow cache) | slow (per-packet oracle)");
  opts.EnableShards();
  opts.Parse(argc, argv);
  if (opts.smoke) event_count = std::min(event_count, 10);
  if (!check_json.empty()) opts.check = true;
  core::ProtocolMutation mutation = core::ProtocolMutation::kNone;
  if (mutate_name == "suppress-flush") {
    mutation = core::ProtocolMutation::kSuppressFlush;
  } else if (!mutate_name.empty()) {
    std::cerr << "bench_chaos_soak: unknown --mutate '" << mutate_name
              << "' (known: suppress-flush)\n";
    return 2;
  }
  core::DataplaneMode dataplane = core::DataplaneMode::kFast;
  if (dataplane_name == "slow") {
    dataplane = core::DataplaneMode::kSlow;
  } else if (dataplane_name != "fast") {
    std::cerr << "bench_chaos_soak: unknown --dataplane '" << dataplane_name
              << "' (known: fast, slow)\n";
    return 2;
  }

  // Before any Simulator exists, so every sim in the sweep records.
  bench::Harness harness(opts);

  const bool csv = opts.csv;
  const std::uint64_t seed = opts.seed;

  if (!csv) {
    std::cout << "Chaos soak: seed=" << seed << ", " << event_count
              << " fault events per topology; recovery = fault injection -> "
                 "first fully clean invariant audit\n\n";
  }

  analysis::Table recovery({"topology", "fault class", "events", "p50 s",
                            "p95 s", "max s", "stuck"});
  analysis::Table totals({"topology", "data sent", "expected", "delivered",
                          "lost", "ctl msgs", "malformed", "final audit",
                          "clean @s"});

  // Replica plan: --repeat reruns the whole sweep with seeds seed,
  // seed+1, ...; each repetition appends its own rows (repeat=1 output
  // is unchanged). Every (repetition x topology) pair is one
  // independent replica — its own Simulator, domain, plan — fanned over
  // the --jobs pool and reduced in plan order, so the tables (and every
  // byte of output) match the legacy serial loop exactly.
  enum class Topo { kScalingGrid, kGrid4x4, kWaxman20, kTransitStub };
  struct ReplicaSpec {
    Topo topo;
    std::uint64_t seed;
  };
  std::vector<ReplicaSpec> specs;
  for (int rep = 0; rep < opts.repeat; ++rep) {
    const std::uint64_t run_seed = seed + static_cast<std::uint64_t>(rep);
    if (routers > 0) {
      specs.push_back({Topo::kScalingGrid, run_seed});
    } else {
      specs.push_back({Topo::kGrid4x4, run_seed});
      specs.push_back({Topo::kWaxman20, run_seed});
      specs.push_back({Topo::kTransitStub, run_seed});
    }
  }

  std::vector<SoakResult> results;
  harness.Sweep(
      "soak", specs.size(),
      [&](exec::RunContext& ctx) -> SoakResult {
        const ReplicaSpec& spec = specs[ctx.index];
        switch (spec.topo) {
          case Topo::kScalingGrid: {
            // Scaling mode: one square grid of at least `routers`
            // routers. The whole domain runs (echo timers, IGMP
            // queries, keepalives on every router), so this is the
            // end-to-end event-engine stressor.
            const int side = std::max(
                2, static_cast<int>(
                       std::ceil(std::sqrt(static_cast<double>(routers)))));
            netsim::Simulator sim(1);
            netsim::Topology topo = netsim::MakeGrid(sim, side, side);
            const std::size_t n = topo.router_lans.size();
            MemberPlan members{{0, n / 3, (2 * n) / 3, n - 1},
                               {topo.routers[0], topo.routers[n - 1]}};
            return RunSoak(
                netsim::Numbered(netsim::Numbered("grid-", side) + "x", side),
                sim, topo, members, ctx.seed, event_count, dump_plan,
                mutation, dataplane, harness, ctx.out);
          }
          case Topo::kGrid4x4: {
            netsim::Simulator sim(1);
            netsim::Topology topo = netsim::MakeGrid(sim, 4, 4);
            MemberPlan members{{3, 5, 10, 12},
                               {topo.routers[0], topo.routers[15]}};
            return RunSoak("grid-4x4", sim, topo, members, ctx.seed,
                           event_count, dump_plan, mutation, dataplane,
                           harness, ctx.out);
          }
          case Topo::kWaxman20: {
            netsim::Simulator sim(1);
            netsim::WaxmanParams wp;
            wp.n = 20;
            wp.seed = 7;
            netsim::Topology topo = netsim::MakeWaxman(sim, wp);
            MemberPlan members{{4, 9, 14, 19},
                               {topo.routers[0], topo.routers[13]}};
            return RunSoak("waxman-20", sim, topo, members, ctx.seed,
                           event_count, dump_plan, mutation, dataplane,
                           harness, ctx.out);
          }
          case Topo::kTransitStub:
          default: {
            netsim::Simulator sim(1);
            netsim::TransitStubParams tp;
            tp.transit_nodes = 4;
            tp.stub_domains = 6;
            tp.stub_size = 3;
            netsim::Topology topo = netsim::MakeTransitStub(sim, tp);
            MemberPlan members{{6, 11, 16, 21},
                               {topo.routers[0], topo.routers[1]}};
            return RunSoak("transit-stub", sim, topo, members, ctx.seed,
                           event_count, dump_plan, mutation, dataplane,
                           harness, ctx.out);
          }
        }
      },
      [&](exec::RunContext&, SoakResult result) {
        harness.MergeCheck(result.check);
        results.push_back(std::move(result));
      },
      bench::SeedsOf(specs));

  bool failed = false;
  for (const SoakResult& r : results) {
    if (r.error.empty()) continue;
    std::cerr << r.topology << ": " << r.error << "\n";
    failed = true;
  }
  if (failed) return harness.Finish(1);

  for (const SoakResult& r : results) {
    for (const auto& [type, stats] : r.by_class) {
      recovery.AddRow({r.topology, netsim::ChaosEventTypeName(type),
                       analysis::Table::Num(stats.recovery_s.size()),
                       analysis::Table::Fixed(Percentile(stats.recovery_s, 0.5), 1),
                       analysis::Table::Fixed(Percentile(stats.recovery_s, 0.95), 1),
                       analysis::Table::Fixed(Percentile(stats.recovery_s, 1.0), 1),
                       analysis::Table::Num(stats.stuck)});
    }
    totals.AddRow({r.topology, analysis::Table::Num(r.sends),
                   analysis::Table::Num(r.expected),
                   analysis::Table::Num(r.delivered),
                   analysis::Table::Num(r.expected - r.delivered),
                   analysis::Table::Num(r.control_messages),
                   analysis::Table::Num(r.malformed),
                   r.final_clean ? "clean" : "VIOLATIONS",
                   analysis::Table::Fixed(r.final_clean_at_s, 1)});
  }

  bench::Emit(recovery, csv, "recovery");
  if (!csv) std::cout << "\n";
  bench::Emit(totals, csv, "totals");

  auto& report = harness.report();
  report.Param("seed", seed);
  report.Param("repeat", opts.repeat);
  report.Param("events", event_count);
  report.Param("routers", routers);
  report.Param("dataplane", dataplane_name);
  harness.ReportCheck(check_json);
  if (!mutate_name.empty()) report.Param("mutate", mutate_name);
  report.AddTable("recovery", recovery, "s");
  report.AddTable("totals", totals);

  bool all_clean = true;
  for (const SoakResult& r : results) all_clean &= r.final_clean;
  if (!csv) {
    std::cout << "\nExpected shape: crash recovery ~= echo timeout + rejoin "
                 "RTT (+ child-assert expiry for the stale child entry); "
                 "flaps and partitions add the fault hold time since the "
                 "tree cannot heal while the fault is outstanding. Same "
                 "seed => byte-identical output.\n";
  }
  return harness.Finish(all_clean ? 0 : 1);
}
