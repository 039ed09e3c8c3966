// Cross-topology delivery sweep: on every generator, all members join,
// every member sends once, and each member must receive exactly one copy
// from every other member — the end-to-end invariant that subsumes most
// forwarding bugs, exercised across structurally different graphs and
// both forwarding modes.
#include <gtest/gtest.h>

#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 123, 0, 1);

enum class Topo { kLine, kStar, kGrid, kTree, kWaxman, kTransitStub };

struct SweepParam {
  Topo topo;
  bool native;
};

class TopologySweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  Topology Make(Simulator& sim) {
    switch (GetParam().topo) {
      case Topo::kLine:
        return netsim::MakeLine(sim, 6);
      case Topo::kStar:
        return netsim::MakeStar(sim, 6);
      case Topo::kGrid:
        return netsim::MakeGrid(sim, 4, 4);
      case Topo::kTree:
        return netsim::MakeBinaryTree(sim, 4);
      case Topo::kWaxman: {
        netsim::WaxmanParams params;
        params.n = 30;
        params.seed = 5;
        return netsim::MakeWaxman(sim, params);
      }
      case Topo::kTransitStub: {
        netsim::TransitStubParams params;
        params.seed = 5;
        return netsim::MakeTransitStub(sim, params);
      }
    }
    return netsim::MakeLine(sim, 2);
  }
};

constexpr SweepParam kSweepParams[] = {
    {Topo::kLine, true},        {Topo::kLine, false},
    {Topo::kStar, true},        {Topo::kStar, false},
    {Topo::kGrid, true},        {Topo::kGrid, false},
    {Topo::kTree, true},        {Topo::kTree, false},
    {Topo::kWaxman, true},      {Topo::kWaxman, false},
    {Topo::kTransitStub, true}, {Topo::kTransitStub, false},
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  static constexpr const char* kNames[] = {"Line", "Star",   "Grid",
                                           "Tree", "Waxman", "TransitStub"};
  return std::string(kNames[(int)info.param.topo]) +
         (info.param.native ? "Native" : "CbtMode");
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologySweep,
                         ::testing::ValuesIn(kSweepParams), SweepName);

TEST_P(TopologySweep, AllToAllExactlyOnceDelivery) {
  Simulator sim(1);
  Topology topo = Make(sim);
  CbtConfig config;
  config.native_mode = GetParam().native;
  CbtDomain domain(sim, topo, config);

  // Core at the first router; members spread deterministically over the
  // router LANs (every 3rd router).
  domain.RegisterGroup(kGroup, {topo.routers[topo.routers.size() / 2]});
  domain.Start();
  sim.RunUntil(kSecond);

  std::vector<HostAgent*> members;
  for (std::size_t i = 0; i < topo.router_lans.size(); i += 3) {
    members.push_back(
        &domain.AddHost(topo.router_lans[i], netsim::Numbered("m", i)));
    members.back()->JoinGroup(kGroup);
    sim.RunUntil(sim.Now() + 500 * kMillisecond);
  }
  ASSERT_GE(members.size(), 2u);
  sim.RunUntil(sim.Now() + 30 * kSecond);

  for (HostAgent* m : members) {
    m->SendToGroup(kGroup, std::vector<std::uint8_t>{0xEE});
    sim.RunUntil(sim.Now() + 2 * kSecond);
  }
  sim.RunUntil(sim.Now() + 10 * kSecond);

  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(members[i]->ReceivedCount(kGroup), members.size() - 1)
        << "member " << i << " of " << members.size();
  }
}

}  // namespace
}  // namespace cbt::core
