#include "cbt/domain.h"

#include <cassert>

namespace cbt::core {

CbtDomain::CbtDomain(netsim::Simulator& sim, netsim::Topology& topo,
                     CbtConfig config, igmp::IgmpConfig igmp_config)
    : ProtocolDomain(sim, topo, "cbt"),
      config_(config),
      igmp_config_(igmp_config) {
  Populate(
      [this](NodeId id) {
        return std::make_unique<CbtRouter>(*sim_, id, routes_, directory_,
                                           config_, igmp_config_);
      },
      &directory_);
}

igmp::MembershipAggregate& CbtDomain::AddAggregate(
    SubnetId lan, const std::string& name,
    igmp::MembershipAggregate::Mode mode) {
  const NodeId id = netsim::AttachHost(*sim_, *topo_, lan, name);
  auto station = std::make_unique<igmp::MembershipAggregate>(
      *sim_, id, mode,
      [this](Ipv4Address group) { return directory_.CoresFor(group); },
      [this, lan](Ipv4Address group) {
        return directory_.AssignedIndex(group, lan);
      });
  sim_->SetAgent(id, station.get());
  igmp::MembershipAggregate& ref = *station;
  aggregates_[id] = std::move(station);
  return ref;
}

igmp::MembershipAggregate& CbtDomain::aggregate(NodeId id) {
  const auto it = aggregates_.find(id);
  assert(it != aggregates_.end());
  return *it->second;
}

std::vector<Ipv4Address> CbtDomain::RegisterGroup(
    Ipv4Address group, const std::vector<NodeId>& cores) {
  std::vector<Ipv4Address> addresses;
  addresses.reserve(cores.size());
  for (const NodeId id : cores) addresses.push_back(sim_->PrimaryAddress(id));
  directory_.SetGroup(group, addresses);
  return addresses;
}

std::vector<Ipv4Address> CbtDomain::RegisterGroup(
    Ipv4Address group, const core_selection::Placement& placement,
    const std::vector<SubnetId>& member_lans) {
  std::vector<Ipv4Address> addresses = RegisterGroup(group, placement.cores);
  std::map<SubnetId, std::size_t> by_lan;
  const std::size_t n = std::min(member_lans.size(),
                                 placement.assignment.size());
  for (std::size_t i = 0; i < n; ++i) {
    by_lan[member_lans[i]] = placement.assignment[i];
  }
  directory_.SetAssignments(group, std::move(by_lan));
  return addresses;
}

void CbtDomain::CrashRouter(NodeId id) {
  sim_->SetNodeUp(id, false);
  router(id).Crash();
}

void CbtDomain::RestartRouter(NodeId id) {
  sim_->SetNodeUp(id, true);
  router(id).Restart();
}

netsim::ChaosInjector::Hooks CbtDomain::ChaosHooks() {
  netsim::ChaosInjector::Hooks hooks;
  // The injector flips the node's up flag itself; these hooks only handle
  // the agent's protocol state.
  hooks.on_crash = [this](NodeId id) {
    if (routers_.contains(id)) router(id).Crash();
  };
  hooks.on_restart = [this](NodeId id) {
    if (routers_.contains(id)) router(id).Restart();
  };
  return hooks;
}

std::size_t CbtDomain::TotalFibState() const {
  return SumOverRouters<std::size_t>(
      [](const CbtRouter& r) { return r.fib().StateUnits(); });
}

std::vector<NodeId> CbtDomain::OnTreeRouters(Ipv4Address group) const {
  std::vector<NodeId> out;
  for (const auto& [id, router] : routers_) {
    if (router->IsOnTree(group)) out.push_back(id);
  }
  return out;
}

}  // namespace cbt::core
