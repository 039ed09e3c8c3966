// Experiment E8 — the spec's own worked examples on the Figure-1
// topology, regenerated message by message:
//  * section 2.5: host A's join builds branch R1-R3-R4; host B's join
//    terminates at R3 with a proxy-ack to D-DR R6 (section 2.6);
//  * section 5: member G's data packet — which router CBT-unicasts /
//    IP-multicasts where (the R8/R9/R10/R4 narrative);
//  * section 2.7: B leaves, R2 quits; R3 stays (R1 still a child).
#include <iostream>

#include "analysis/table.h"
#include "bench_util.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace {

using namespace cbt;  // NOLINT

constexpr Ipv4Address kGroup(239, 1, 2, 3);

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts("figure1_walkthrough",
                      "E8: the spec's Figure-1 worked examples");
  opts.Parse(argc, argv);
  bench::Harness harness(opts);

  analysis::Table first_data({""});
  const int rc = harness.Repeat([&](exec::RunContext& ctx) -> int {
  std::ostream& out = ctx.out;
  netsim::Simulator sim(1);
  netsim::Topology topo = netsim::MakeFigure1(sim);
  core::CbtConfig config;
  config.native_mode = false;  // CBT mode, as in the section 5 narrative
  core::CbtDomain domain(sim, topo, config);
  domain.RegisterGroup(kGroup, {topo.node("R4"), topo.node("R9")});
  domain.Start();
  sim.RunUntil(kSecond);

  out << "E8: Figure-1 walkthroughs (CBT mode)\n\n"
         "(1) section 2.5/2.6 — A then B join\n\n";
  domain.host("A").JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);
  domain.host("B").JoinGroup(kGroup);
  sim.RunUntil(20 * kSecond);

  analysis::Table joins({"check", "spec says", "measured"});
  const auto on_tree = [&](const char* r) {
    return domain.router(r).IsOnTree(kGroup) ? "on-tree" : "off-tree";
  };
  joins.AddRow({"branch R1-R3-R4 built", "R1,R3,R4 on-tree",
                std::string(on_tree("R1")) + "," + on_tree("R3") + "," +
                    on_tree("R4")});
  joins.AddRow({"B's join terminated early", "R4 sees only A's join",
                "R4 acks sent = " +
                    analysis::Table::Num(
                        domain.router("R4").stats().acks_sent)});
  joins.AddRow({"R2 proxy-acks R6", "1 proxy-ack",
                "R2 proxy-acks = " +
                    analysis::Table::Num(
                        domain.router("R2").stats().proxy_acks_sent)});
  joins.AddRow({"D-DR R6 keeps no state", "no FIB entry",
                domain.router("R6").IsOnTree(kGroup) ? "HAS STATE"
                                                     : "stateless"});
  joins.Print(out);

  // Everyone else joins for the data walkthrough.
  for (const char* h : {"C", "D", "E", "F", "G", "H", "I", "J", "K", "L"}) {
    domain.host(h).JoinGroup(kGroup);
  }
  sim.RunUntil(60 * kSecond);
  for (const NodeId id : domain.router_ids()) {
    domain.router(id).mutable_stats() = core::RouterStats{};
  }

  out << "\n(2) section 5 — member G originates one data packet\n\n";
  domain.host("G").SendToGroup(kGroup, std::vector<std::uint8_t>{0xCB});
  sim.RunUntil(sim.Now() + 10 * kSecond);

  analysis::Table data({"router", "tree txs", "LAN multicasts",
                        "spec narrative"});
  const struct {
    const char* router;
    const char* note;
  } rows[] = {
      {"R8", "CBT unicasts to R9, R12, R4; IP multicast onto S14"},
      {"R9", "no members on S12: no LAN multicast; unicast to R10"},
      {"R10", "IP multicasts to both S13 and S15"},
      {"R4", "IP multicasts onto S5, S6, S7; unicasts to R3, R7"},
      {"R7", "IP multicasts onto S9"},
      {"R3", "CBT unicasts to R1 and R2"},
      {"R1", "IP multicasts onto S1 and S3"},
      {"R2", "IP multicasts onto S4"},
      {"R12", "IP multicasts onto S11"},
  };
  for (const auto& r : rows) {
    const auto& s = domain.router(r.router).stats();
    data.AddRow({r.router, analysis::Table::Num(s.data_forwarded_tree),
                 analysis::Table::Num(s.data_delivered_lan), r.note});
  }
  data.Print(out);

  std::uint64_t delivered = 0;
  for (const char* h :
       {"A", "B", "C", "D", "E", "F", "H", "I", "J", "K", "L"}) {
    delivered += domain.host(h).ReceivedCount(kGroup);
  }
  out << "\nmembers delivered: " << delivered
      << "/11 (each exactly once)\n";

  out << "\n(3) section 2.7 — B leaves; R2 quits, R3 stays\n\n";
  const auto r2_quits_before = domain.router("R2").stats().quits_sent;
  domain.host("B").LeaveGroup(kGroup);
  sim.RunUntil(sim.Now() + 60 * kSecond);

  analysis::Table teardown({"check", "spec says", "measured"});
  teardown.AddRow(
      {"R2 sent QUIT_REQUEST", ">= 1",
       analysis::Table::Num(domain.router("R2").stats().quits_sent -
                            r2_quits_before)});
  teardown.AddRow({"R2 left the tree", "off-tree",
                   domain.router("R2").IsOnTree(kGroup) ? "ON-TREE"
                                                        : "off-tree"});
  teardown.AddRow({"R3 remains (R1 still child)", "on-tree",
                   domain.router("R3").IsOnTree(kGroup) ? "on-tree"
                                                        : "OFF-TREE"});
  teardown.Print(out);
  if (ctx.index == 0) first_data = data;
  return 0;
      });
  auto& report = harness.report();
  report.AddTable("data_walkthrough", first_data, "packets");
  return harness.Finish(rc);
}
