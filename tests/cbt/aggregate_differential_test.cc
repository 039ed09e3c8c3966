// Differential pin: igmp::MembershipAggregate in kExactHostEquivalence
// mode is indistinguishable on the wire from one fresh single-group
// HostAgent per member.
//
// Two worlds run the identical seeded ChurnSchedule over the identical
// topology and simulator seed. World A attaches a fresh HostAgent per
// join (FIFO retirement per leave); world B drives one aggregate per
// member LAN. A passive tap on every member LAN records each IGMP frame
// it hears — timestamp, type, code, group, version, target core index,
// core list. Source addresses are the one acknowledged difference (N
// host addresses vs one station address; routers track group presence
// and ignore reporter identity), so records exclude them. Everything
// else must match byte for byte, across five schedule seeds, and both
// worlds must end audit-clean with identical on-tree router sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "cbt/churn.h"
#include "cbt/domain.h"
#include "cbt/host.h"
#include "igmp/membership_aggregate.h"
#include "netsim/simulator.h"
#include "netsim/topologies.h"
#include "packet/encap.h"
#include "packet/ipv4.h"

namespace cbt {
namespace {

constexpr SimDuration kDuration = 90 * kSecond;
constexpr std::uint32_t kGroups = 3;

Ipv4Address GroupAddress(std::uint32_t g) {
  return Ipv4Address(239, 10, 0, static_cast<std::uint8_t>(g));
}

igmp::IgmpConfig FastIgmpConfig() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

scenario::ChurnParams Params() {
  scenario::ChurnParams params;
  params.groups = kGroups;
  params.zipf_s = 1.0;
  params.initial_members = 24;
  params.arrivals_per_second = 1.0;
  params.mean_holding = 20 * kSecond;
  params.duration = kDuration;
  return params;
}

/// Records every IGMP frame heard on one LAN, minus the source address.
class WireTap : public netsim::NetworkAgent {
 public:
  WireTap(netsim::Simulator& sim, std::uint32_t lan,
          std::vector<std::string>& out)
      : sim_(&sim), lan_(lan), out_(&out) {}

  void OnDatagram(VifIndex /*vif*/, Ipv4Address /*link_src*/,
                  Ipv4Address /*link_dst*/,
                  std::span<const std::uint8_t> datagram) override {
    const auto parsed = packet::ParseDatagram(datagram);
    if (!parsed || parsed->ip.protocol != packet::IpProtocol::kIgmp) return;
    const auto msg = packet::ExtractIgmp(*parsed);
    if (!msg) return;
    std::ostringstream line;
    line << "t=" << sim_->Now() << " lan=" << lan_
         << " dst=" << parsed->ip.dst.ToString()
         << " type=" << static_cast<int>(msg->type)
         << " code=" << static_cast<int>(msg->code)
         << " group=" << msg->group.ToString()
         << " v=" << static_cast<int>(msg->version)
         << " tci=" << static_cast<int>(msg->target_core_index) << " cores=";
    for (const Ipv4Address& core : msg->cores) line << core.ToString() << ";";
    out_->push_back(line.str());
  }

 private:
  netsim::Simulator* sim_;
  std::uint32_t lan_;
  std::vector<std::string>* out_;
};

struct WorldResult {
  std::vector<std::string> wire;
  bool audit_clean = false;
  std::map<std::uint32_t, std::vector<NodeId>> tree;  // group -> routers
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> members;
};

WorldResult RunWorld(bool per_host, std::uint64_t schedule_seed) {
  WorldResult result;

  netsim::Simulator sim(1);
  netsim::Topology topo = netsim::MakeGrid(sim, 3, 3);
  core::CbtDomain domain(sim, topo, core::CbtConfig{}, FastIgmpConfig());

  const auto lan_count = static_cast<std::uint32_t>(topo.router_lans.size());
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    domain.RegisterGroup(GroupAddress(g),
                         {topo.routers[(g * 4) % topo.routers.size()]});
  }

  // Taps attach before any member model so attachment order — and with
  // it every address and delivery sequence — matches across worlds.
  std::vector<std::unique_ptr<WireTap>> taps;
  for (std::uint32_t i = 0; i < lan_count; ++i) {
    const NodeId id = netsim::AttachHost(sim, topo, topo.router_lans[i],
                                         netsim::Numbered("tap", i));
    taps.push_back(std::make_unique<WireTap>(sim, i, result.wire));
    sim.SetAgent(id, taps.back().get());
  }

  std::vector<igmp::MembershipAggregate*> stations;
  if (!per_host) {
    for (std::uint32_t i = 0; i < lan_count; ++i) {
      stations.push_back(&domain.AddAggregate(
          topo.router_lans[i], netsim::Numbered("agg", i),
          igmp::MembershipAggregate::Mode::kExactHostEquivalence));
    }
  }

  // World A: fresh host per join, FIFO retirement — the reference the
  // aggregate's slot order is defined against.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::deque<core::HostAgent*>>
      fifos;
  std::uint64_t next_host = 0;

  const scenario::ChurnSchedule schedule =
      scenario::ChurnSchedule::Generate(Params(), lan_count, schedule_seed);
  scenario::ChurnRunner runner(
      sim, schedule, [&](const scenario::MembershipEvent& e) {
        const Ipv4Address group = GroupAddress(e.group);
        if (!per_host) {
          if (e.join) {
            stations[e.lan]->Join(group);
          } else {
            stations[e.lan]->Leave(group);
          }
          return;
        }
        auto& fifo = fifos[{e.lan, e.group}];
        if (e.join) {
          core::HostAgent& host = domain.AddHost(
              topo.router_lans[e.lan], netsim::Numbered("h", next_host++));
          host.JoinGroup(group);
          fifo.push_back(&host);
        } else if (!fifo.empty()) {
          fifo.front()->LeaveGroup(group);
          fifo.pop_front();
        }
      });

  domain.Start();
  runner.Start();
  sim.RunUntil(kDuration);
  result.audit_clean =
      analysis::RunUntilInvariantsHold(domain, sim.Now() + 60 * kSecond)
          .has_value();

  for (std::uint32_t g = 0; g < kGroups; ++g) {
    std::vector<NodeId> on_tree = domain.OnTreeRouters(GroupAddress(g));
    std::sort(on_tree.begin(), on_tree.end());
    result.tree[g] = std::move(on_tree);
  }
  for (std::uint32_t i = 0; i < lan_count; ++i) {
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      const std::uint64_t count =
          per_host ? fifos[{i, g}].size()
                   : stations[i]->MemberCount(GroupAddress(g));
      if (count > 0) result.members[{i, g}] = count;
    }
  }
  return result;
}

class AggregateDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregateDifferential, WireTrafficAndTreeStateMatchPerHostModel) {
  const std::uint64_t seed = GetParam();
  const WorldResult hosts = RunWorld(/*per_host=*/true, seed);
  const WorldResult aggregate = RunWorld(/*per_host=*/false, seed);

  EXPECT_TRUE(hosts.audit_clean);
  EXPECT_TRUE(aggregate.audit_clean);
  EXPECT_EQ(hosts.members, aggregate.members);
  EXPECT_EQ(hosts.tree, aggregate.tree);

  ASSERT_FALSE(hosts.wire.empty());
  // Element-wise first: the first divergent frame localizes a bug far
  // better than a bare count mismatch.
  const std::size_t common = std::min(hosts.wire.size(), aggregate.wire.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (hosts.wire[i] == aggregate.wire[i]) continue;
    std::ostringstream context;
    for (std::size_t j = i >= 4 ? i - 4 : 0; j < std::min(common, i + 6);
         ++j) {
      context << "\n  hosts[" << j << "]:     " << hosts.wire[j]
              << "\n  aggregate[" << j << "]: " << aggregate.wire[j];
    }
    ASSERT_EQ(hosts.wire[i], aggregate.wire[i])
        << "first divergent frame at index " << i << ", seed " << seed
        << context.str();
  }
  ASSERT_EQ(hosts.wire.size(), aggregate.wire.size())
      << "IGMP frame counts diverge at seed " << seed << "; next frame: "
      << (hosts.wire.size() > common ? hosts.wire[common]
                                     : aggregate.wire[common]);
}

INSTANTIATE_TEST_SUITE_P(FiveSeeds, AggregateDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace cbt
