// Router-side IGMP engine (the spec's host-facing half of CBT).
//
// Responsibilities, per spec section 2.3:
//  * querier election — at start-up a router sends "two or three
//    IGMP-HOST-MEMBERSHIP-QUERYs in short succession"; the lowest-addressed
//    querier on each subnet wins, and the CBT D-DR is the querier;
//  * group-presence tracking per interface (reports are multicast to the
//    group, so every router on the LAN tracks passively; only the querier
//    transmits queries);
//  * leave latency — on HOST-MEMBERSHIP-LEAVE the querier sends
//    group-specific queries and expires the group if nobody answers
//    "within the required response interval" (section 2.7);
//  * surfacing RP/Core-Reports (the appendix IGMPv3 message) to CBT.
//
// The engine is embedded in a CbtRouter (and in baseline routers); it
// sends through an owner-provided callback and never touches the FIB.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "netsim/simulator.h"
#include "netsim/timer.h"
#include "packet/igmp.h"

namespace cbt::igmp {

struct IgmpConfig {
  SimDuration query_interval = 60 * kSecond;
  SimDuration query_response_interval = 10 * kSecond;
  /// IGMP robustness variable: lost-report tolerance.
  int robustness = 2;
  /// Section 2.3: queries "in short succession" at start-up.
  int startup_query_count = 2;
  SimDuration startup_query_interval = 5 * kSecond;
  /// Group-specific (leave-triggered) queries.
  int last_member_query_count = 2;
  SimDuration last_member_query_interval = 1 * kSecond;

  SimDuration GroupMembershipTimeout() const {
    return robustness * query_interval + query_response_interval;
  }
  SimDuration OtherQuerierPresentTimeout() const {
    return robustness * query_interval + query_response_interval / 2;
  }
  SimDuration LastMemberTimeout() const {
    return last_member_query_count * last_member_query_interval +
           kSecond;
  }
};

class RouterIgmp {
 public:
  struct Callbacks {
    /// A membership report arrived for `group` on `vif` (new or refresh).
    std::function<void(VifIndex, Ipv4Address group, Ipv4Address reporter,
                       bool newly_present)>
        on_report;
    /// An RP/Core-Report arrived (full message, ordered core list).
    std::function<void(VifIndex, const packet::IgmpMessage&)> on_core_report;
    /// Last member on `vif` timed out / left.
    std::function<void(VifIndex, Ipv4Address group)> on_group_expired;
    /// Transmit an IGMP message out of `vif` to link destination `dst`.
    std::function<void(VifIndex, Ipv4Address dst, const packet::IgmpMessage&)>
        send;
  };

  RouterIgmp(netsim::Simulator& sim, NodeId self, IgmpConfig config,
             Callbacks callbacks);

  /// Kicks off startup queries on every interface. Re-entrant: calling it
  /// again after ShutDown() models a router restart (querier duty is
  /// re-contested from scratch, section 2.3).
  void Start();

  /// Process-crash model: cancels every timer and forgets all learned
  /// state (group presence, querier election). The engine goes silent
  /// until the next Start().
  void ShutDown();

  /// Feed every received IGMP message here (src = IP source address).
  void OnMessage(VifIndex vif, Ipv4Address src, const packet::IgmpMessage& msg);

  /// True when this router is the IGMP querier on `vif` — which, per
  /// section 2.3, also makes it the CBT default DR there.
  bool IsQuerier(VifIndex vif) const;

  /// Current querier's address on the vif's subnet (self or other).
  Ipv4Address QuerierAddress(VifIndex vif) const;

  bool HasMembers(VifIndex vif, Ipv4Address group) const;
  bool AnyMembers(Ipv4Address group) const;
  std::vector<VifIndex> MemberVifs(Ipv4Address group) const;

  /// All groups with presence on at least one interface.
  std::vector<Ipv4Address> PresentGroups() const;

  /// Monotonic counter bumped whenever externally observable state
  /// changes: a group appears or expires on a vif, querier duty flips,
  /// or ShutDown wipes the engine. Consumers that memoize decisions
  /// derived from membership/querier state (the CBT data-plane flow
  /// cache) poll this instead of subscribing to every callback.
  std::uint64_t state_version() const { return state_version_; }

 private:
  struct GroupPresence {
    netsim::Timer expiry;
    bool leave_pending = false;
  };

  struct VifState {
    VifIndex vif = kInvalidVif;
    bool querier = true;
    Ipv4Address other_querier;
    netsim::Timer other_querier_timer;
    netsim::Timer query_timer;
    int startup_queries_left = 0;
    std::map<Ipv4Address, std::unique_ptr<GroupPresence>> groups;
  };

  void SendGeneralQuery(VifState& vs);
  void ScheduleNextQuery(VifState& vs);
  /// (Re)arms `group`'s expiry; `presence` is its slot in vs.groups,
  /// created (null) by the caller when the group is new.
  void RefreshGroup(VifState& vs, Ipv4Address group,
                    std::unique_ptr<GroupPresence>& presence,
                    SimDuration timeout, bool from_leave);
  void HandleQuery(VifState& vs, Ipv4Address src,
                   const packet::IgmpMessage& msg);
  void HandleLeave(VifState& vs, Ipv4Address src, Ipv4Address group);

  const VifState* FindVif(VifIndex vif) const;
  VifState& MustVif(VifIndex vif);
  Ipv4Address MyAddress(VifIndex vif) const;

  netsim::Simulator* sim_;
  NodeId self_;
  IgmpConfig config_;
  Callbacks callbacks_;
  std::vector<std::unique_ptr<VifState>> vifs_;  // index-aligned with node vifs
  std::uint64_t state_version_ = 0;
};

}  // namespace cbt::igmp
