// Experiment E7 — failure recovery (section 6.1 + section 9 timers).
//
// Kill the on-tree parent of a member's branch and measure (a) time from
// the failure to the branch re-acked onto the tree, and (b) the control
// messages spent. Recovery time is governed by ECHO-INTERVAL/ECHO-TIMEOUT
// (detection) plus one join RTT (repair), so sweeping the echo timers
// shows the trade-off the spec's defaults pick.
//
// Topologies: a diamond (single alternate path) and the Figure-1 network
// with the secondary core taking over after the primary's site fails.
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "analysis/table.h"
#include "bench_util.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace {

using namespace cbt;  // NOLINT

constexpr Ipv4Address kGroup(239, 1, 2, 3);

struct Recovery {
  double detect_s = -1;   // failure -> on_parent_lost
  double recover_s = -1;  // failure -> on_reconnected
  std::uint64_t messages = 0;
  std::optional<check::CheckReport> check;  // --check
};

Recovery RunDiamond(SimDuration echo_interval, SimDuration echo_timeout,
                    const bench::Harness& harness) {
  netsim::Simulator sim(1);
  netsim::Topology topo;
  const NodeId r0 = sim.AddNode("r0", true);
  const NodeId r1 = sim.AddNode("r1", true);
  const NodeId r2 = sim.AddNode("r2", true);
  const NodeId r3 = sim.AddNode("r3", true);
  topo.routers = {r0, r1, r2, r3};
  topo.nodes = {{"r0", r0}, {"r1", r1}, {"r2", r2}, {"r3", r3}};
  sim.Connect(r0, r1);
  sim.Connect(r1, r3);
  sim.Connect(r0, r2);
  sim.Connect(r2, r3);
  const SubnetId lan0 = sim.AddSubnet(
      "lan0", SubnetAddress::FromPrefix(Ipv4Address(10, 30, 0, 0), 16));
  sim.Attach(r0, lan0);
  topo.subnets["lan0"] = lan0;

  core::CbtConfig config;
  config.echo_interval = echo_interval;
  config.echo_timeout = echo_timeout;
  core::CbtDomain domain(sim, topo, config);
  domain.RegisterGroup(kGroup, {r3});
  domain.Start();
  sim.RunUntil(kSecond);
  domain.AddHost(lan0, "m").JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);

  Recovery out;
  std::optional<SimTime> lost, reconnected;
  core::CbtRouter::Callbacks cb;
  cb.on_parent_lost = [&](Ipv4Address) { lost = sim.Now(); };
  cb.on_reconnected = [&](Ipv4Address) { reconnected = sim.Now(); };
  domain.router(r0).set_callbacks(std::move(cb));

  const std::uint64_t msgs_before = domain.TotalControlMessages();
  const SimTime failure = sim.Now();
  sim.SetNodeUp(r1, false);
  sim.RunUntil(failure + 600 * kSecond);

  if (lost) out.detect_s = (double)(*lost - failure) / kSecond;
  if (reconnected) out.recover_s = (double)(*reconnected - failure) / kSecond;
  out.messages = domain.TotalControlMessages() - msgs_before;
  out.check = harness.CheckReplica(sim, config);
  return out;
}

struct GridResult {
  std::vector<std::vector<std::string>> rows;
  std::optional<check::CheckReport> check;  // --check
};

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts("failure_recovery",
                      "E7: parent-failure detection and branch re-attach");
  opts.EnableCheck();
  opts.Parse(argc, argv);
  bench::Harness harness(opts);

  std::cout << "E7: failure recovery — parent router dies; child branch "
               "re-attaches via the alternate path\n\n(a) diamond "
               "topology, echo timer sweep\n\n";

  // One replica per timer case (a), one for the grid failover (b): each
  // builds its own simulator, so the cases fan out over --jobs workers.
  analysis::Table sweep({"echo interval s", "echo timeout s", "detect s",
                         "recover s", "ctl msgs (10 min)"});
  const struct {
    SimDuration interval, timeout;
  } timer_cases[] = {
      {10 * kSecond, 30 * kSecond},
      {30 * kSecond, 90 * kSecond},  // the spec's defaults
      {60 * kSecond, 180 * kSecond},
  };
  harness.Sweep(
      "echo_sweep", std::size(timer_cases),
      [&](exec::RunContext& ctx) {
        const auto& t = timer_cases[ctx.index];
        return RunDiamond(t.interval, t.timeout, harness);
      },
      [&](exec::RunContext& ctx, Recovery r) {
        const auto& t = timer_cases[ctx.index];
        sweep.AddRow({analysis::Table::Num(t.interval / kSecond),
                      analysis::Table::Num(t.timeout / kSecond),
                      analysis::Table::Fixed(r.detect_s, 1),
                      analysis::Table::Fixed(r.recover_s, 1),
                      analysis::Table::Num(r.messages)});
        harness.MergeCheck(r.check);
      });
  sweep.Print(std::cout);

  std::cout << "\n(b) 4x4 grid: primary core fails; orphaned branches "
               "re-anchor at the secondary core (section 6.1/6.2)\n"
               "(note: in Figure 1 itself R4 is a cut vertex — a primary-"
               "core site failure there *partitions* the network, which "
               "no multicast protocol can survive; hence the 2-connected "
               "grid here)\n\n";
  analysis::Table grid_table({"event", "value"});
  harness.Sweep(
      "grid_core_failover", 1,
      [&](exec::RunContext&) {
        GridResult result;
        auto& rows = result.rows;
        netsim::Simulator sim(1);
        netsim::Topology topo = netsim::MakeGrid(sim, 4, 4);
        core::CbtDomain domain(sim, topo);
        // Primary core: corner (0,0); secondary: corner (3,3).
        domain.RegisterGroup(kGroup, {topo.routers[0], topo.routers[15]});
        domain.Start();
        sim.RunUntil(kSecond);
        // Members behind four spread routers.
        std::vector<core::HostAgent*> members;
        for (const std::size_t idx : {3u, 5u, 10u, 12u}) {
          members.push_back(&domain.AddHost(topo.router_lans[idx],
                                            netsim::Numbered("m", idx)));
          members.back()->JoinGroup(kGroup);
        }
        sim.RunUntil(30 * kSecond);

        const SimTime failure = sim.Now();
        sim.SetNodeUp(topo.routers[0], false);
        sim.RunUntil(failure + 600 * kSecond);

        // Validate delivery end-to-end after recovery: member 3 sends.
        members[0]->SendToGroup(kGroup, std::vector<std::uint8_t>{1});
        sim.RunUntil(sim.Now() + 10 * kSecond);

        std::uint64_t losses = 0, reconnects = 0;
        for (const NodeId id : domain.router_ids()) {
          losses += domain.router(id).stats().parent_losses;
          reconnects += domain.router(id).stats().reconnects_succeeded;
        }
        rows.push_back(
            {"routers that lost a parent", analysis::Table::Num(losses)});
        rows.push_back(
            {"successful reconnects", analysis::Table::Num(reconnects)});
        rows.push_back(
            {"secondary core anchors tree",
             domain.router(topo.routers[15]).IsOnTree(kGroup) ? "yes"
                                                              : "NO"});
        int delivered = 0;
        for (std::size_t i = 1; i < members.size(); ++i) {
          if (members[i]->ReceivedCount(kGroup) > 0) ++delivered;
        }
        rows.push_back({"members receiving after recovery",
                        analysis::Table::Num(delivered) + "/3"});
        result.check = harness.CheckReplica(sim, core::CbtConfig{});
        return result;
      },
      [&](exec::RunContext&, GridResult result) {
        for (auto& row : result.rows) grid_table.AddRow(std::move(row));
        harness.MergeCheck(result.check);
      });
  grid_table.Print(std::cout);
  std::cout << "\nExpected shape: detection ~= echo timeout (+ up to one "
               "interval), repair ~= one join RTT on top; smaller echo "
               "timers recover faster but cost proportionally more "
               "keepalive messages. After the primary-core failure the "
               "secondary core anchors delivery.\n";
  harness.ReportCheck();
  auto& report = harness.report();
  report.AddTable("echo_sweep", sweep, "s");
  report.AddTable("grid_core_failover", grid_table);
  return harness.Finish(0);
}
