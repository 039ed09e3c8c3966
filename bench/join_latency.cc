// Experiment E5 — join latency.
//
// The -03 draft's stated design goal: "we strive to keep join latency to
// an absolute minimum". Two measurements:
//  (a) Figure-1 topology: per-host latency from the IGMP reports hitting
//      the wire to the D-DR's join being acknowledged, replaying the
//      section 2.5/2.6 walkthrough (host B's join terminates early at an
//      on-tree router; the proxy-ack costs nothing extra);
//  (b) line topologies: latency vs router-hop distance to the core — the
//      expected shape is one control RTT, i.e. 2 x one-way path delay
//      (plus the LAN hop), linear in distance.
// Also ablates the proxy-ack optimization (section 2.6): latency is the
// same, but the LAN's D-DR keeps state without it.
#include <iostream>
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

struct JoinLatency {
  SimDuration dr = -1;    // until the D-DR's join is acknowledged
  SimDuration host = -1;  // until the host sees the join confirmation
};

/// Joins `host` and measures both the DR-side and host-observed latency
/// (the latter includes the -03 section 2.5 confirmation multicast).
JoinLatency MeasureJoin(netsim::Simulator& sim, core::CbtDomain& domain,
                        const std::string& host_name,
                        const std::string& dr_name) {
  std::optional<SimTime> established;
  core::CbtRouter::Callbacks cb;
  cb.on_group_established = [&](Ipv4Address) { established = sim.Now(); };
  domain.router(dr_name).set_callbacks(std::move(cb));
  auto& host = domain.host(host_name);
  const SimTime start = sim.Now();
  host.JoinGroup(kGroup);
  std::optional<SimTime> confirmed;
  while (sim.Now() < start + 30 * kSecond) {
    sim.RunUntil(sim.Now() + kMillisecond);
    if (!confirmed && host.JoinConfirmed(kGroup)) confirmed = sim.Now();
  }
  domain.router(dr_name).set_callbacks({});
  JoinLatency out;
  if (established) out.dr = *established - start;
  if (confirmed) out.host = *confirmed - start;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts("join_latency", "E5: join latency vs distance to core");
  opts.EnableShards();
  opts.Parse(argc, argv);
  bench::Harness harness(opts);

  std::cout << "E5: join latency\n\n(a) Figure-1 walkthrough (1ms link "
               "delays; joins issued sequentially; latency = IGMP report "
               "hop + join/ack round trip)\n\n";

  // (a) is one replica: the four joins share a simulator and are
  // sequential by design (host B's early termination depends on host A's
  // join having built the tree). (b) fans one replica per hop count.
  analysis::Table fig1(
      {"host", "D-DR", "DR latency ms", "host-observed ms", "note"});
  harness.Sweep(
      "figure1", 1,
      [&](cbt::exec::RunContext&) {
        std::vector<std::vector<std::string>> rows;
        netsim::Simulator sim(1);
        netsim::Topology topo = netsim::MakeFigure1(sim);
        const bench::ShardedDomain sharded = harness.Domain(sim, topo);
        core::CbtDomain& domain = *sharded.domain;
        domain.RegisterGroup(kGroup, {topo.node("R4"), topo.node("R9")});
        domain.Start();
        sim.RunUntil(kSecond);

        const struct {
          const char* host;
          const char* dr;
          const char* note;
        } cases[] = {
            {"A", "R1", "first join: travels R1-R3-R4"},
            {"B", "R6", "terminates at on-tree R3; proxy-ack to R6"},
            {"G", "R8", "terminates at core R4"},
            {"H", "R10", "travels R10-R9-R8 (R8 on-tree)"},
        };
        for (const auto& c : cases) {
          const JoinLatency d = MeasureJoin(sim, domain, c.host, c.dr);
          rows.push_back(
              {c.host, c.dr,
               analysis::Table::Fixed((double)d.dr / kMillisecond, 1),
               analysis::Table::Fixed((double)d.host / kMillisecond, 1),
               c.note});
        }
        return rows;
      },
      [&](cbt::exec::RunContext&, std::vector<std::vector<std::string>> rows) {
        for (auto& row : rows) fig1.AddRow(std::move(row));
      });
  fig1.Print(std::cout);

  std::cout << "\n(b) latency vs hop distance to core (line topology, 1ms "
               "links), with and without proxy-ack\n\n";
  analysis::Table line({"hops to core", "latency ms", "expected 2*delay ms",
                        "DR holds state (proxy on)", "DR holds state (off)"});
  const std::vector<int> hop_counts = {1, 2, 4, 6, 8, 10};
  harness.Sweep(
      "line", hop_counts.size(),
      [&](cbt::exec::RunContext& ctx) {
        const int hops = hop_counts[ctx.index];
        double latency_ms = 0;
        bool dr_state_on = false, dr_state_off = false;
        for (const bool proxy : {true, false}) {
          netsim::Simulator sim(1);
          netsim::Topology topo = netsim::MakeLine(sim, hops + 1);
          core::CbtConfig config;
          config.enable_proxy_ack = proxy;
          const bench::ShardedDomain sharded =
              harness.Domain(sim, topo, config);
          core::CbtDomain& domain = *sharded.domain;
          domain.RegisterGroup(kGroup, {topo.routers[(std::size_t)hops]});
          domain.Start();
          sim.RunUntil(kSecond);
          auto& host = domain.AddHost(topo.router_lans[0], "m");

          std::optional<SimTime> established;
          core::CbtRouter::Callbacks cb;
          cb.on_group_established = [&](Ipv4Address) {
            established = sim.Now();
          };
          domain.router(topo.routers[0]).set_callbacks(std::move(cb));
          const SimTime start = sim.Now();
          host.JoinGroup(kGroup);
          sim.RunUntil(start + 30 * kSecond);

          if (proxy) {
            latency_ms = established
                             ? (double)(*established - start) / kMillisecond
                             : -1;
            dr_state_on = domain.router(topo.routers[0]).IsOnTree(kGroup);
          } else {
            dr_state_off = domain.router(topo.routers[0]).IsOnTree(kGroup);
          }
        }
        // Join travels `hops` links, ack travels them back; the IGMP
        // report adds one LAN delay (1ms) before the DR acts.
        return std::vector<std::string>{
            analysis::Table::Num(hops),
            analysis::Table::Fixed(latency_ms, 1),
            analysis::Table::Fixed(2.0 * hops + 1.0, 1),
            dr_state_on ? "yes" : "no", dr_state_off ? "yes" : "no"};
      },
      [&](cbt::exec::RunContext&, std::vector<std::string> row) {
        line.AddRow(std::move(row));
      });
  line.Print(std::cout);
  std::cout << "\nExpected shape: latency linear in hop count at ~one "
               "control RTT; proxy-ack does not change latency (a line's "
               "first hop is never on the member LAN, so both columns "
               "hold state here — the Figure-1 B case above shows the "
               "stateless-DR effect).\n";

  auto& report = harness.report();
  report.Param("seed", opts.seed);
  report.AddTable("figure1", fig1, "ms");
  report.AddTable("line", line, "ms");
  return harness.Finish(0);
}
