// Aggregate host-membership model: one station agent stands in for N
// member hosts on a LAN.
//
// At 10k+ routers the per-host simulation objects — one node, one
// attachment, one HostAgent and one pending-response timer per member —
// dominate both memory and event count. A MembershipAggregate keeps
// per-group member *counts* plus the response deadlines those members
// would have drawn, and drives the router-side IGMP querier/report/leave
// machinery (RouterIgmp) exactly as the individual hosts would have:
// unsolicited report pairs on join (immediate + 1 s robustness repeat),
// HOST-MEMBERSHIP-LEAVE per departing member, randomized suppressed
// responses to general and group-specific queries, RP/Core-Reports for
// IGMPv3. Routers cannot tell the difference — RouterIgmp tracks group
// *presence* per vif and ignores reporter identity (reports are
// multicast to the group; see router_igmp.h).
//
// Two fidelity modes:
//
//  * kExactHostEquivalence — replicates the per-host model's RNG draw
//    sequence and timer semantics member-for-member, so a simulation
//    using one aggregate per LAN produces byte-identical IGMP wire
//    traffic to one using N single-group HostAgents attached in join
//    order (the differential tests pin this). Costs O(members) per
//    general query (one uniform draw per non-pending member, exactly as
//    N hosts would draw) but still collapses N nodes/attachments/timers
//    into one agent and one coalesced timer per group.
//
//  * kCoalesced — the scale mode: per-group counts only. A query draws
//    ONE deadline per group present, distributed as the minimum of n
//    per-member uniforms (inverse transform), because with report
//    suppression the first responder is all the wire usually carries.
//    Everything is O(groups present) per subnet; member count only
//    scales the sampled minimum. Join/leave transients still cost one
//    message (pair) per membership event — faithful control-message
//    accounting under churn is the point of the workload.
//
// The station never hears its own frames (netsim delivers multicast to
// every *other* attachment), so suppression between its own members is
// modelled internally: a report sent at t cancels other members'
// outstanding deadlines when it would have arrived, t + subnet delay —
// members whose deadlines land inside that window still respond, exactly
// like real hosts racing the suppressing report.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "netsim/simulator.h"
#include "netsim/timer.h"
#include "packet/igmp.h"

namespace cbt::igmp {

class MembershipAggregate : public netsim::NetworkAgent {
 public:
  enum class Mode {
    kExactHostEquivalence,
    kCoalesced,
  };

  /// Supplies the ordered candidate-core list for a group (empty => no
  /// RP/Core-Report). A callback rather than a GroupDirectory so this
  /// layer does not depend on cbt_core; CbtDomain adapts its directory.
  using CoresFn = std::function<std::vector<Ipv4Address>(Ipv4Address)>;

  /// Supplies the core-list index this station's LAN should target for a
  /// group (the per-LAN partition of a multi-core tree). Optional; 0 when
  /// absent, preserving single-core behaviour.
  using IndexFn = std::function<std::size_t(Ipv4Address)>;

  /// IGMP generation the aggregated hosts speak (mirrors
  /// core::IgmpHostVersion): 1 = no leaves / no core reports, 2 = leaves
  /// but no core reports, 3 = full appendix behaviour.
  MembershipAggregate(netsim::Simulator& sim, NodeId self, Mode mode,
                      CoresFn cores_for = nullptr, IndexFn index_for = nullptr);

  void OnDatagram(VifIndex vif, Ipv4Address link_src, Ipv4Address link_dst,
                  std::span<const std::uint8_t> datagram) override;

  /// Adds one member to `group` using the cores_for list, exactly like
  /// HostAgent::JoinGroup on a fresh host: sends the unsolicited
  /// RP/Core-Report + membership report now and repeats them after 1 s
  /// if the member is still present.
  void Join(Ipv4Address group);

  /// Join with an explicit core list (group's list is set on first join;
  /// later joins reuse it, as every host would fetch the same mapping).
  void JoinWithCores(Ipv4Address group, std::vector<Ipv4Address> cores,
                     std::size_t target_index = 0);

  /// Removes the oldest active member of `group` (membership events are
  /// anonymous; FIFO keeps the exact mode aligned with a per-host driver
  /// that retires its oldest host). Sends HOST-MEMBERSHIP-LEAVE to
  /// 224.0.0.2 for IGMP v2/v3. No-op when the group has no members.
  void Leave(Ipv4Address group);

  std::uint64_t MemberCount(Ipv4Address group) const;
  std::uint64_t TotalMembers() const { return total_members_; }
  std::size_t GroupsPresent() const;

  /// True once a join-confirmation for the group has been seen while
  /// members were present.
  bool JoinConfirmed(Ipv4Address group) const;

  /// Data deliveries credited to members: each delivered datagram counts
  /// once per member of the destination group (what N hosts would have
  /// logged).
  std::uint64_t ReceivedCount(Ipv4Address group) const;

  void set_igmp_version(int version) { version_ = version; }
  int igmp_version() const { return version_; }

  Mode mode() const { return mode_; }
  NodeId id() const { return self_; }
  Ipv4Address address() const { return address_; }

  struct Stats {
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    std::uint64_t reports_sent = 0;
    std::uint64_t core_reports_sent = 0;
    std::uint64_t leaves_sent = 0;
    std::uint64_t queries_seen = 0;
    /// Responses drawn but cancelled by a suppressing report (own
    /// members' or another station's).
    std::uint64_t responses_suppressed = 0;
  };
  const Stats& stats() const { return stats_; }

  void ResetProtocolCounters() override { stats_ = Stats{}; }

 private:
  static constexpr SimTime kNoDeadline = -1;

  /// One aggregated member, in chronological join order across all
  /// groups (exact mode only; coalesced mode keeps counts).
  struct MemberSlot {
    std::uint32_t group_idx = 0;
    bool active = false;
    SimTime deadline = kNoDeadline;  // outstanding query-response time
    /// Join instant: datagram delivery snapshots the attachment list at
    /// send time, so a per-host member attached at t hears nothing sent
    /// strictly before t — nor at exactly t (setup order runs query
    /// sends ahead of same-instant churn joins). The aggregate station,
    /// attached up front, hears everything; it must re-impose that
    /// filter per member to stay draw-for-draw equivalent.
    SimTime joined_at = 0;
  };

  struct GroupState {
    Ipv4Address group;
    std::uint32_t index = 0;  // position in groups_ (and group_index_ value)
    packet::CoreList cores;
    std::size_t target_index = 0;
    std::uint64_t active_count = 0;
    bool confirmed = false;
    std::uint64_t received = 0;

    // Exact mode: active slots in join order (indices into slots_;
    // entries popped front-first on Leave, lazily compacted).
    std::vector<std::uint32_t> fifo;
    std::size_t fifo_head = 0;
    // Outstanding response deadlines, min-heap of (deadline, slot).
    // Entries are invalidated by clearing the slot's deadline and
    // skipped on pop.
    std::vector<std::pair<SimTime, std::uint32_t>> outstanding;
    netsim::Timer response_timer;  // fires at the heap minimum
    netsim::Timer cancel_timer;    // earliest suppressing-report arrival
    bool cancel_pending = false;

    // Coalesced mode: the single pending group response.
    SimTime pending_deadline = kNoDeadline;
  };

  void HandleIgmp(const packet::IgmpMessage& msg);
  void HandleQuery(const packet::IgmpMessage& msg);
  void HandleReportSeen(Ipv4Address group);

  /// Draws response deadlines for `gs`'s members (exact: every active
  /// non-pending member in join order; coalesced: one min-of-n draw).
  void DrawResponses(GroupState& gs, SimDuration max_delay);
  void DrawResponsesExact(GroupState& gs, SimDuration max_delay);
  void DrawResponsesCoalesced(GroupState& gs, SimDuration max_delay);

  void ArmResponseTimer(GroupState& gs);
  void OnResponseTimer(std::uint32_t group_idx);
  /// Coalesced mode: clears the group's pending response (a suppressing
  /// report has arrived at the station's members).
  void CancelOutstanding(GroupState& gs);
  /// Exact mode: clears outstanding deadlines the way per-host delivery
  /// would — skipping the frame's own sender (a host never hears its own
  /// report) and members who joined at or after `sent_at` (their
  /// attachment postdates the delivery snapshot).
  void CancelOutstandingExact(GroupState& gs, SimTime sent_at,
                              std::int64_t exempt_slot);
  /// A report for the group left this station at Now(): schedule the
  /// internal suppression arrival one subnet delay later. `sender_slot`
  /// (exact mode) identifies the member whose frame it was.
  void NoteSelfReport(GroupState& gs, std::int64_t sender_slot = -1);

  void SendReports(GroupState& gs);
  void Send(Ipv4Address dst, const packet::IgmpMessage& msg);

  GroupState& StateFor(Ipv4Address group);
  GroupState* FindState(Ipv4Address group);
  const GroupState* FindState(Ipv4Address group) const;

  netsim::Simulator* sim_;
  NodeId self_;
  Mode mode_;
  CoresFn cores_for_;
  IndexFn index_for_;
  Ipv4Address address_;
  SimDuration subnet_delay_;
  int version_ = 3;
  std::uint64_t total_members_ = 0;

  std::vector<MemberSlot> slots_;  // exact mode, join order
  /// Deque, not vector: pending Timer events capture their Timer's
  /// address, so a GroupState must never relocate once created.
  std::deque<GroupState> groups_;
  /// (group, index into groups_), sorted by group: a station serves a
  /// handful of groups, so a binary search over one or two cache lines
  /// beats a tree walk on the per-frame lookups.
  std::vector<std::pair<Ipv4Address, std::uint32_t>> group_index_;
  Stats stats_;
};

}  // namespace cbt::igmp
