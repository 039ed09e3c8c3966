// CbtDomain: wires a topology into a running CBT "cloud".
//
// A ProtocolDomain of CbtRouters whose routers and hosts share one
// GroupDirectory — the standard harness used by tests, examples, and
// benchmarks. Hosts attached later (AddHost) get agents too.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cbt/config.h"
#include "cbt/core_selection.h"
#include "cbt/group_directory.h"
#include "cbt/protocol_domain.h"
#include "cbt/router.h"
#include "igmp/membership_aggregate.h"
#include "netsim/chaos.h"

namespace cbt::core {

class CbtDomain : public ProtocolDomain<CbtRouter> {
 public:
  CbtDomain(netsim::Simulator& sim, netsim::Topology& topo,
            CbtConfig config = {}, igmp::IgmpConfig igmp_config = {});

  /// Attaches an aggregate membership station to `lan` (one agent
  /// standing in for any number of member hosts; see
  /// igmp/membership_aggregate.h). The station resolves core lists
  /// through this domain's GroupDirectory.
  igmp::MembershipAggregate& AddAggregate(
      SubnetId lan, const std::string& name,
      igmp::MembershipAggregate::Mode mode =
          igmp::MembershipAggregate::Mode::kCoalesced);

  igmp::MembershipAggregate& aggregate(NodeId id);

  GroupDirectory& directory() { return directory_; }

  /// Space-parallel PDES support: gives every region its own
  /// RouteManager and repoints each router at its region's manager, so
  /// routing state is never shared across concurrently-executing
  /// regions. Each manager builds its own destination trees for its
  /// region's routers' next-hop queries; a tree is a function of the
  /// topology alone, so routes are byte-identical at any region count.
  /// The base manager keeps serving domain/bench/test queries. Static
  /// next-hop overrides are not copied (bench topologies do not use
  /// them); call before Start().
  void ShardRoutes(int regions,
                   const std::function<int(NodeId)>& region_of);

  /// Registers a group in the directory with cores given by node ids
  /// (primary first) and returns the core address list.
  std::vector<Ipv4Address> RegisterGroup(Ipv4Address group,
                                         const std::vector<NodeId>& cores);

  /// Registers a k-core placement: publishes the core list plus the
  /// member-LAN → core-index partition (`member_lans[i]` is the LAN whose
  /// members `placement.assignment[i]` maps — the LAN attached to the
  /// strategy's `member_routers[i]`). Hosts and D-DRs on a listed LAN then
  /// join their assigned core's subtree.
  std::vector<Ipv4Address> RegisterGroup(
      Ipv4Address group, const core_selection::Placement& placement,
      const std::vector<SubnetId>& member_lans);

  // --- Fault injection ----------------------------------------------------

  /// Crashes a router: the node stops sending/receiving and its CBT agent
  /// loses every bit of protocol state (FIB, timers, IGMP) — section 6.2's
  /// restart model taken literally.
  void CrashRouter(NodeId id);

  /// Restarts a previously crashed router; it re-acquires all state via
  /// normal protocol means (querier election, member reports, joins).
  void RestartRouter(NodeId id);

  /// Hooks wiring a netsim::ChaosInjector's node-crash events to
  /// CrashRouter/RestartRouter (host nodes just go down/up).
  netsim::ChaosInjector::Hooks ChaosHooks();

  /// Sum of FIB state units across all routers (experiment E1).
  std::size_t TotalFibState() const;
  /// Routers holding a FIB entry for `group`.
  std::vector<NodeId> OnTreeRouters(Ipv4Address group) const;

 private:
  /// Per-region managers created by ShardRoutes; empty when unsharded.
  std::vector<std::unique_ptr<routing::RouteManager>> shard_routes_;
  GroupDirectory directory_;
  CbtConfig config_;
  igmp::IgmpConfig igmp_config_;
  std::map<NodeId, std::unique_ptr<igmp::MembershipAggregate>> aggregates_;
};

}  // namespace cbt::core
