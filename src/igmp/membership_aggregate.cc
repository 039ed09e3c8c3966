#include "igmp/membership_aggregate.h"

#include <algorithm>
#include <cmath>

#include "packet/encap.h"

namespace cbt::igmp {

using packet::IgmpMessage;
using packet::IgmpType;
using packet::IpProtocol;

namespace {

/// Min-heap comparator over (deadline, slot index): earliest deadline
/// first, join order on ties — the order N per-host timers would fire.
struct LaterEntry {
  bool operator()(const std::pair<SimTime, std::uint32_t>& a,
                  const std::pair<SimTime, std::uint32_t>& b) const {
    return a > b;
  }
};

/// First entry of a (group, index) table not ordered before `group`.
template <typename Index>
auto LowerBound(Index& index, Ipv4Address group) {
  return std::lower_bound(
      index.begin(), index.end(), group,
      [](const auto& entry, Ipv4Address g) { return entry.first < g; });
}

}  // namespace

MembershipAggregate::MembershipAggregate(netsim::Simulator& sim, NodeId self,
                                         Mode mode, CoresFn cores_for,
                                         IndexFn index_for)
    : sim_(&sim),
      self_(self),
      mode_(mode),
      cores_for_(std::move(cores_for)),
      index_for_(std::move(index_for)),
      address_(sim.PrimaryAddress(self)),
      subnet_delay_(sim.subnet(sim.interface(self, 0).subnet).delay) {}

void MembershipAggregate::Join(Ipv4Address group) {
  // JoinWithCores adopts a list only for a group without members, so the
  // mapping is fetched just then; later joins reuse the adopted list.
  const GroupState* gs = FindState(group);
  std::vector<Ipv4Address> cores;
  std::size_t target_index = 0;
  if (gs == nullptr || gs->active_count == 0 || gs->cores.empty()) {
    if (cores_for_ != nullptr) cores = cores_for_(group);
    if (index_for_ != nullptr) target_index = index_for_(group);
  }
  JoinWithCores(group, std::move(cores), target_index);
}

void MembershipAggregate::JoinWithCores(Ipv4Address group,
                                        std::vector<Ipv4Address> cores,
                                        std::size_t target_index) {
  netsim::AffinityScope affinity(*sim_, self_);
  GroupState& gs = StateFor(group);
  if (gs.active_count == 0 || gs.cores.empty()) {
    gs.cores = cores;
    gs.target_index = target_index < gs.cores.size() ? target_index : 0;
  }
  ++gs.active_count;
  ++total_members_;
  ++stats_.joins;
  const std::uint32_t group_idx = gs.index;

  if (mode_ == Mode::kExactHostEquivalence) {
    const auto slot_idx = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({group_idx, true, kNoDeadline, sim_->Now()});
    gs.fifo.push_back(slot_idx);
    // Unsolicited reports exactly like HostAgent::JoinGroupWithCores:
    // once now, once after 1 s if this member is still joined.
    SendReports(gs);
    NoteSelfReport(gs, slot_idx);
    sim_->Schedule(kSecond, [this, slot_idx, group_idx] {
      if (!slots_[slot_idx].active) return;
      GroupState& g = groups_[group_idx];
      SendReports(g);
      NoteSelfReport(g, slot_idx);
    });
    return;
  }

  // Coalesced: the join transient still costs one report pair per
  // membership event (control-message accounting must track churn), but
  // no per-member slot exists.
  SendReports(gs);
  NoteSelfReport(gs);
  sim_->Schedule(kSecond, [this, group_idx] {
    GroupState& g = groups_[group_idx];
    if (g.active_count == 0) return;
    SendReports(g);
    NoteSelfReport(g);
  });
}

void MembershipAggregate::Leave(Ipv4Address group) {
  netsim::AffinityScope affinity(*sim_, self_);
  GroupState* gs = FindState(group);
  if (gs == nullptr || gs->active_count == 0) return;

  if (mode_ == Mode::kExactHostEquivalence) {
    MemberSlot& slot = slots_[gs->fifo[gs->fifo_head++]];
    slot.active = false;
    // A pending response dies with the member (its heap entry is skipped
    // lazily); the coalesced timer may fire a no-op and re-arm.
    slot.deadline = kNoDeadline;
  } else if (gs->active_count == 1) {
    gs->pending_deadline = kNoDeadline;
    gs->response_timer.Cancel();
  }

  --gs->active_count;
  --total_members_;
  ++stats_.leaves;
  if (gs->active_count == 0) gs->confirmed = false;

  // IGMPv1 hosts have no leave message; v2/v3 always announce the
  // departure (HostAgent::LeaveGroup does not check for co-members).
  if (version_ >= 2) {
    IgmpMessage leave;
    leave.type = IgmpType::kLeaveGroup;
    leave.group = group;
    Send(kAllRoutersGroup, leave);
    ++stats_.leaves_sent;
  }
}

std::uint64_t MembershipAggregate::MemberCount(Ipv4Address group) const {
  const GroupState* gs = FindState(group);
  return gs != nullptr ? gs->active_count : 0;
}

std::size_t MembershipAggregate::GroupsPresent() const {
  std::size_t n = 0;
  for (const GroupState& gs : groups_) n += gs.active_count > 0 ? 1 : 0;
  return n;
}

bool MembershipAggregate::JoinConfirmed(Ipv4Address group) const {
  const GroupState* gs = FindState(group);
  return gs != nullptr && gs->confirmed;
}

std::uint64_t MembershipAggregate::ReceivedCount(Ipv4Address group) const {
  const GroupState* gs = FindState(group);
  return gs != nullptr ? gs->received : 0;
}

void MembershipAggregate::OnDatagram(VifIndex /*vif*/,
                                     Ipv4Address /*link_src*/,
                                     Ipv4Address /*link_dst*/,
                                     std::span<const std::uint8_t> datagram) {
  const auto parsed = packet::ParseDatagram(datagram);
  if (!parsed) return;
  const packet::Ipv4Header& ip = parsed->ip;

  switch (ip.protocol) {
    case IpProtocol::kIgmp: {
      if (const auto msg = packet::ExtractIgmp(*parsed)) HandleIgmp(*msg);
      return;
    }
    case IpProtocol::kCbt:
    case IpProtocol::kUdp:
      return;  // router business, exactly as HostAgent discards it
    default: {
      if (!ip.dst.IsMulticast()) return;
      GroupState* gs = FindState(ip.dst);
      if (gs == nullptr || gs->active_count == 0) return;
      // One frame on the wire, one delivery per aggregated member.
      gs->received += gs->active_count;
      return;
    }
  }
}

void MembershipAggregate::HandleIgmp(const IgmpMessage& msg) {
  switch (msg.type) {
    case IgmpType::kMembershipQuery:
      ++stats_.queries_seen;
      HandleQuery(msg);
      return;
    case IgmpType::kMembershipReport:
      HandleReportSeen(msg.group);
      return;
    case IgmpType::kJoinConfirmation: {
      GroupState* gs = FindState(msg.group);
      if (gs != nullptr && gs->active_count > 0) gs->confirmed = true;
      return;
    }
    default:
      return;
  }
}

void MembershipAggregate::HandleQuery(const IgmpMessage& msg) {
  const SimDuration max_delay =
      msg.code != 0 ? msg.code * (kSecond / 10) : kSecond;

  if (!msg.group.IsUnspecified()) {
    GroupState* gs = FindState(msg.group);
    if (gs == nullptr || gs->active_count == 0) return;
    DrawResponses(*gs, max_delay);
    return;
  }

  // General query. In exact mode the draw order must match N per-host
  // agents answering in attachment (= join) order, each for its single
  // group — so iterate the global chronological slot list, not
  // group-by-group.
  if (mode_ == Mode::kExactHostEquivalence) {
    const SimTime now = sim_->Now();
    // The query was put on the wire one subnet delay ago; members who
    // joined at or after that instant would not have been attached yet
    // as individual hosts, so they must not answer (see MemberSlot).
    const SimTime sent_at = now - subnet_delay_;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      MemberSlot& slot = slots_[i];
      if (!slot.active) continue;
      if (slot.joined_at >= sent_at) continue;  // attached after the send
      if (slot.deadline != kNoDeadline) continue;  // pending: no redraw
      const auto delay = static_cast<SimDuration>(
          sim_->rng().NextBelow(static_cast<std::uint64_t>(max_delay) + 1));
      slot.deadline = now + delay;
      GroupState& gs = groups_[slot.group_idx];
      gs.outstanding.emplace_back(slot.deadline, i);
      std::push_heap(gs.outstanding.begin(), gs.outstanding.end(),
                     LaterEntry{});
    }
    for (GroupState& gs : groups_) ArmResponseTimer(gs);
    return;
  }

  for (GroupState& gs : groups_) {
    if (gs.active_count > 0) DrawResponsesCoalesced(gs, max_delay);
  }
}

void MembershipAggregate::DrawResponses(GroupState& gs,
                                        SimDuration max_delay) {
  if (mode_ == Mode::kExactHostEquivalence) {
    DrawResponsesExact(gs, max_delay);
  } else {
    DrawResponsesCoalesced(gs, max_delay);
  }
}

void MembershipAggregate::DrawResponsesExact(GroupState& gs,
                                             SimDuration max_delay) {
  const SimTime now = sim_->Now();
  const SimTime sent_at = now - subnet_delay_;  // see general-query path
  for (std::size_t f = gs.fifo_head; f < gs.fifo.size(); ++f) {
    const std::uint32_t slot_idx = gs.fifo[f];
    MemberSlot& slot = slots_[slot_idx];
    if (slot.joined_at >= sent_at) continue;  // attached after the send
    if (slot.deadline != kNoDeadline) continue;  // pending: no redraw
    const auto delay = static_cast<SimDuration>(
        sim_->rng().NextBelow(static_cast<std::uint64_t>(max_delay) + 1));
    slot.deadline = now + delay;
    gs.outstanding.emplace_back(slot.deadline, slot_idx);
    std::push_heap(gs.outstanding.begin(), gs.outstanding.end(), LaterEntry{});
  }
  ArmResponseTimer(gs);
}

void MembershipAggregate::DrawResponsesCoalesced(GroupState& gs,
                                                 SimDuration max_delay) {
  if (gs.pending_deadline != kNoDeadline) return;  // pending: no redraw
  // With report suppression only the first responder normally reaches
  // the wire, so sample the minimum of active_count per-member uniform
  // delays directly: P(min > d) = (1 - d/M)^n, inverted through one
  // uniform draw. One draw and one timer per group present — the
  // O(groups) contract of the aggregate model.
  const double u = sim_->rng().NextDouble();
  const double n = static_cast<double>(gs.active_count);
  const double frac = 1.0 - std::pow(1.0 - u, 1.0 / n);
  auto delay = static_cast<SimDuration>(
      frac * static_cast<double>(max_delay));
  delay = std::clamp<SimDuration>(delay, 0, max_delay);
  gs.pending_deadline = sim_->Now() + delay;
  const std::uint32_t group_idx = gs.index;
  gs.response_timer.Schedule(delay,
                             [this, group_idx] { OnResponseTimer(group_idx); });
}

void MembershipAggregate::ArmResponseTimer(GroupState& gs) {
  // Drop entries whose member left or already resolved.
  while (!gs.outstanding.empty()) {
    const auto& [deadline, slot_idx] = gs.outstanding.front();
    const MemberSlot& slot = slots_[slot_idx];
    if (slot.active && slot.deadline == deadline) break;
    std::pop_heap(gs.outstanding.begin(), gs.outstanding.end(), LaterEntry{});
    gs.outstanding.pop_back();
  }
  if (gs.outstanding.empty()) {
    gs.response_timer.Cancel();
    return;
  }
  const std::uint32_t group_idx = gs.index;
  gs.response_timer.Schedule(gs.outstanding.front().first - sim_->Now(),
                             [this, group_idx] { OnResponseTimer(group_idx); });
}

void MembershipAggregate::OnResponseTimer(std::uint32_t group_idx) {
  GroupState& gs = groups_[group_idx];

  if (mode_ == Mode::kCoalesced) {
    if (gs.pending_deadline == kNoDeadline || gs.active_count == 0) return;
    gs.pending_deadline = kNoDeadline;
    SendReports(gs);
    NoteSelfReport(gs);
    return;
  }

  const SimTime now = sim_->Now();
  std::vector<std::uint32_t> senders;
  while (!gs.outstanding.empty()) {
    const auto [deadline, slot_idx] = gs.outstanding.front();
    MemberSlot& slot = slots_[slot_idx];
    if (!slot.active || slot.deadline != deadline) {
      std::pop_heap(gs.outstanding.begin(), gs.outstanding.end(),
                    LaterEntry{});
      gs.outstanding.pop_back();
      continue;
    }
    if (deadline > now) break;
    std::pop_heap(gs.outstanding.begin(), gs.outstanding.end(), LaterEntry{});
    gs.outstanding.pop_back();
    slot.deadline = kNoDeadline;
    SendReports(gs);
    senders.push_back(slot_idx);
  }
  // Re-arm before noting the self reports: a member whose deadline equals
  // the suppression arrival fires first (its per-host timer predates the
  // suppressing frame), so the response event must outrank the cancel
  // event at equal times.
  ArmResponseTimer(gs);
  for (const std::uint32_t sender : senders) NoteSelfReport(gs, sender);
}

void MembershipAggregate::CancelOutstanding(GroupState& gs) {
  if (gs.pending_deadline != kNoDeadline) {
    gs.pending_deadline = kNoDeadline;
    gs.response_timer.Cancel();
    ++stats_.responses_suppressed;
  }
}

void MembershipAggregate::CancelOutstandingExact(GroupState& gs,
                                                 SimTime sent_at,
                                                 std::int64_t exempt_slot) {
  // Per-host fidelity demands two filters a wholesale clear would break:
  // the sender never hears its own frame (its pending response survives
  // and fires again later, exactly like a real host's), and members
  // attached after the frame hit the wire never receive it.
  bool changed = false;
  for (const auto& [deadline, slot_idx] : gs.outstanding) {
    MemberSlot& slot = slots_[slot_idx];
    if (!slot.active || slot.deadline != deadline) continue;
    if (static_cast<std::int64_t>(slot_idx) == exempt_slot) continue;
    if (slot.joined_at >= sent_at) continue;  // attached after the send
    slot.deadline = kNoDeadline;
    ++stats_.responses_suppressed;
    changed = true;
  }
  // Invalidated heap entries are pruned lazily; re-arm so the timer
  // tracks the surviving minimum (or cancels when none survive).
  if (changed) ArmResponseTimer(gs);
}

void MembershipAggregate::NoteSelfReport(GroupState& gs,
                                         std::int64_t sender_slot) {
  // The station never hears its own frame, so model the suppression its
  // report causes among co-members internally: when the frame would have
  // arrived (one subnet delay), every response still outstanding is
  // cancelled — responses due before then still race onto the wire,
  // exactly like real hosts.
  if (mode_ == Mode::kExactHostEquivalence) {
    // One cancel per frame, carrying its send time and sender: the
    // per-host model delivers each report to every co-member except the
    // sender, so a shared coalesced cancel event would be unfaithful.
    const SimTime sent_at = sim_->Now();
    const std::uint32_t group_idx = gs.index;
    sim_->Schedule(subnet_delay_, [this, group_idx, sent_at, sender_slot] {
      CancelOutstandingExact(groups_[group_idx], sent_at, sender_slot);
    });
    return;
  }
  if (gs.cancel_pending) return;  // an earlier arrival already covers it
  gs.cancel_pending = true;
  const std::uint32_t group_idx = gs.index;
  gs.cancel_timer.Schedule(subnet_delay_, [this, group_idx] {
    GroupState& g = groups_[group_idx];
    g.cancel_pending = false;
    CancelOutstanding(g);
  });
}

void MembershipAggregate::HandleReportSeen(Ipv4Address group) {
  // Another station answered for the group: suppression on arrival. The
  // frame left its sender one subnet delay ago.
  GroupState* gs = FindState(group);
  if (gs == nullptr) return;
  if (mode_ == Mode::kExactHostEquivalence) {
    CancelOutstandingExact(*gs, sim_->Now() - subnet_delay_, -1);
  } else {
    CancelOutstanding(*gs);
  }
}

void MembershipAggregate::SendReports(GroupState& gs) {
  // RP/Core-Report first so the D-DR holds the <core,group> mapping when
  // the membership report triggers the join (spec section 2.5); IGMPv3
  // only, exactly like HostAgent::SendReports.
  if (version_ == 3 && !gs.cores.empty()) {
    IgmpMessage core_report;
    core_report.type = IgmpType::kRpCoreReport;
    core_report.code = packet::kCoreReportCodeCbt;
    core_report.group = gs.group;
    core_report.target_core_index = static_cast<std::uint8_t>(gs.target_index);
    core_report.cores = gs.cores;
    Send(gs.group, core_report);
    ++stats_.core_reports_sent;
  }

  IgmpMessage report;
  report.type = IgmpType::kMembershipReport;
  report.group = gs.group;
  Send(gs.group, report);
  ++stats_.reports_sent;
}

void MembershipAggregate::Send(Ipv4Address dst, const IgmpMessage& msg) {
  sim_->SendDatagram(self_, 0, dst,
                     packet::BuildIgmpDatagram(address_, dst, msg));
}

MembershipAggregate::GroupState& MembershipAggregate::StateFor(
    Ipv4Address group) {
  const auto it = LowerBound(group_index_, group);
  if (it != group_index_.end() && it->first == group) {
    return groups_[it->second];
  }
  const auto idx = static_cast<std::uint32_t>(groups_.size());
  group_index_.emplace(it, group, idx);
  GroupState gs;
  gs.group = group;
  gs.index = idx;
  gs.response_timer.BindTo(*sim_);
  gs.cancel_timer.BindTo(*sim_);
  groups_.push_back(std::move(gs));
  return groups_.back();
}

MembershipAggregate::GroupState* MembershipAggregate::FindState(
    Ipv4Address group) {
  const auto it = LowerBound(group_index_, group);
  return it != group_index_.end() && it->first == group ? &groups_[it->second]
                                                        : nullptr;
}

const MembershipAggregate::GroupState* MembershipAggregate::FindState(
    Ipv4Address group) const {
  const auto it = LowerBound(group_index_, group);
  return it != group_index_.end() && it->first == group ? &groups_[it->second]
                                                        : nullptr;
}

}  // namespace cbt::igmp
