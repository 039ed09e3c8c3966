// Scheme comparison: run the SAME workload over a CBT domain and a
// DVMRP-style flood-and-prune domain and contrast what the two designs
// pay — the trade the SIGCOMM'93 paper is about, live rather than as an
// oracle computation (bench_state_scaling / bench_tree_cost do the
// systematic sweeps).
#include <cstdio>
#include <vector>

#include "baselines/dvmrp_domain.h"
#include "baselines/mospf_domain.h"
#include "cbt/core_selection.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

using namespace cbt;  // NOLINT — example brevity

namespace {

constexpr int kGroups = 6;
constexpr int kMembersPerGroup = 5;
constexpr int kSendersPerGroup = 3;

Ipv4Address Group(int g) {
  return Ipv4Address(239, 30, 0, static_cast<std::uint8_t>(g + 1));
}

struct Outcome {
  std::uint64_t delivered = 0;
  std::uint64_t expected = 0;
  std::size_t state_units = 0;
  std::size_t stateful_routers = 0;
  std::uint64_t data_transmissions = 0;
  std::uint64_t control_messages = 0;
};

template <typename Domain, typename StatePerRouter, typename DataPerRouter>
Outcome RunWorkload(netsim::Simulator& sim, netsim::Topology& topo,
                    Domain& domain, bool cbt, StatePerRouter state_of,
                    DataPerRouter data_of) {
  Rng rng(1234);
  std::vector<core::HostAgent*> members[kGroups];
  std::vector<core::HostAgent*> senders[kGroups];

  for (int g = 0; g < kGroups; ++g) {
    for (const std::size_t idx : rng.SampleWithoutReplacement(
             topo.routers.size(), kMembersPerGroup)) {
      auto& h = domain.AddHost(
          topo.router_lans[idx],
          netsim::Numbered(netsim::Numbered("m", g) + "_", idx));
      if (cbt) {
        h.JoinGroup(Group(g));
      } else {
        h.JoinGroupWithCores(Group(g), {}, 0);
      }
      members[g].push_back(&h);
      sim.RunUntil(sim.Now() + 200 * kMillisecond);
    }
    for (const std::size_t idx : rng.SampleWithoutReplacement(
             topo.routers.size(), kSendersPerGroup)) {
      senders[g].push_back(&domain.AddHost(
          topo.router_lans[idx],
          netsim::Numbered(netsim::Numbered("s", g) + "_", idx)));
    }
  }
  sim.RunUntil(sim.Now() + 20 * kSecond);

  // Each sender multicasts 5 packets.
  for (int round = 0; round < 5; ++round) {
    for (int g = 0; g < kGroups; ++g) {
      for (auto* s : senders[g]) {
        s->SendToGroup(Group(g), std::vector<std::uint8_t>{1, 2, 3});
      }
    }
    sim.RunUntil(sim.Now() + 2 * kSecond);
  }
  sim.RunUntil(sim.Now() + 20 * kSecond);

  Outcome out;
  for (int g = 0; g < kGroups; ++g) {
    for (auto* m : members[g]) {
      out.delivered += m->ReceivedCount(Group(g));
      out.expected += 5 * kSendersPerGroup;
    }
  }
  for (const NodeId r : topo.routers) {
    const std::size_t units = state_of(r);
    out.state_units += units;
    if (units > 0) ++out.stateful_routers;
    out.data_transmissions += data_of(r);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("identical workload — %d groups x %d members x %d senders x 5 "
              "packets — on a 24-router Waxman graph:\n\n",
              kGroups, kMembersPerGroup, kSendersPerGroup);

  Outcome cbt_out, dvmrp_out, mospf_out;
  {
    netsim::Simulator sim(11);
    netsim::WaxmanParams params;
    params.n = 24;
    params.seed = 77;
    netsim::Topology topo = netsim::MakeWaxman(sim, params);
    core::CbtDomain domain(sim, topo);
    Rng core_rng(5);
    core_selection::PlacementInput place_in;
    place_in.routers = topo.routers;
    place_in.rng = &core_rng;
    const auto random_cores = core_selection::MakeStrategy("random");
    for (int g = 0; g < kGroups; ++g) {
      domain.RegisterGroup(Group(g), random_cores->Place(place_in, 2).cores);
    }
    domain.Start();
    sim.RunUntil(kSecond);
    cbt_out = RunWorkload(
        sim, topo, domain, /*cbt=*/true,
        [&](NodeId r) { return domain.router(r).fib().StateUnits(); },
        [&](NodeId r) {
          const auto& s = domain.router(r).stats();
          return s.data_forwarded_tree + s.data_delivered_lan;
        });
    cbt_out.control_messages = domain.TotalControlMessages();
  }
  {
    netsim::Simulator sim(11);
    netsim::WaxmanParams params;
    params.n = 24;
    params.seed = 77;
    netsim::Topology topo = netsim::MakeWaxman(sim, params);
    baselines::DvmrpDomain domain(sim, topo);
    domain.Start();
    sim.RunUntil(kSecond);
    dvmrp_out = RunWorkload(
        sim, topo, domain, /*cbt=*/false,
        [&](NodeId r) { return domain.router(r).StateUnits(); },
        [&](NodeId r) {
          const auto& s = domain.router(r).stats();
          return s.data_forwarded + s.data_delivered_lan;
        });
    dvmrp_out.control_messages = domain.TotalControlMessages();
  }

  {
    netsim::Simulator sim(11);
    netsim::WaxmanParams params;
    params.n = 24;
    params.seed = 77;
    netsim::Topology topo = netsim::MakeWaxman(sim, params);
    baselines::MospfDomain domain(sim, topo);
    domain.Start();
    sim.RunUntil(kSecond);
    mospf_out = RunWorkload(
        sim, topo, domain, /*cbt=*/false,
        [&](NodeId r) { return domain.router(r).StateUnits(); },
        [&](NodeId r) {
          const auto& s = domain.router(r).stats();
          return s.data_forwarded + s.data_delivered_lan;
        });
    mospf_out.control_messages = domain.TotalControlMessages();
  }

  std::printf("%-28s %14s %14s %14s\n", "", "CBT", "DVMRP-style",
              "MOSPF-style");
  std::printf("%-28s %10llu/%llu %10llu/%llu %10llu/%llu\n",
              "packets delivered", (unsigned long long)cbt_out.delivered,
              (unsigned long long)cbt_out.expected,
              (unsigned long long)dvmrp_out.delivered,
              (unsigned long long)dvmrp_out.expected,
              (unsigned long long)mospf_out.delivered,
              (unsigned long long)mospf_out.expected);
  std::printf("%-28s %14zu %14zu %14zu\n", "router state units",
              cbt_out.state_units, dvmrp_out.state_units,
              mospf_out.state_units);
  std::printf("%-28s %14zu %14zu %14zu\n", "routers holding state",
              cbt_out.stateful_routers, dvmrp_out.stateful_routers,
              mospf_out.stateful_routers);
  std::printf("%-28s %14llu %14llu %14llu\n", "data transmissions",
              (unsigned long long)cbt_out.data_transmissions,
              (unsigned long long)dvmrp_out.data_transmissions,
              (unsigned long long)mospf_out.data_transmissions);
  std::printf("%-28s %14llu %14llu %14llu\n", "control messages",
              (unsigned long long)cbt_out.control_messages,
              (unsigned long long)dvmrp_out.control_messages,
              (unsigned long long)mospf_out.control_messages);
  std::printf(
      "\nreading: all three deliver everything; CBT concentrates modest "
      "state on tree routers only; flood-and-prune touches every router "
      "and spends transmissions on flooding; MOSPF avoids flooding data "
      "but pays membership-knowledge state at every router plus LSA "
      "control traffic — the paper's three-way trade-off.\n");
  return 0;
}
