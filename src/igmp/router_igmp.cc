#include "igmp/router_igmp.h"

#include <cassert>

namespace cbt::igmp {

using packet::IgmpMessage;
using packet::IgmpType;

RouterIgmp::RouterIgmp(netsim::Simulator& sim, NodeId self, IgmpConfig config,
                       Callbacks callbacks)
    : sim_(&sim), self_(self), config_(config), callbacks_(std::move(callbacks)) {
  const auto& node = sim_->node(self_);
  vifs_.reserve(node.interfaces.size());
  for (const netsim::Interface& iface : node.interfaces) {
    auto vs = std::make_unique<VifState>();
    vs->vif = iface.vif;
    vs->other_querier_timer.BindTo(sim);
    vs->query_timer.BindTo(sim);
    vifs_.push_back(std::move(vs));
  }
}

void RouterIgmp::Start() {
  for (auto& vs : vifs_) {
    vs->startup_queries_left = config_.startup_query_count;
    SendGeneralQuery(*vs);
  }
}

void RouterIgmp::ShutDown() {
  ++state_version_;
  for (auto& vs : vifs_) {
    vs->querier = true;  // restart re-contests the election from scratch
    vs->other_querier = Ipv4Address{};
    vs->other_querier_timer.Cancel();
    vs->query_timer.Cancel();
    vs->startup_queries_left = 0;
    vs->groups.clear();  // GroupPresence destructors cancel expiry timers
  }
}

Ipv4Address RouterIgmp::MyAddress(VifIndex vif) const {
  return sim_->interface(self_, vif).address;
}

void RouterIgmp::SendGeneralQuery(VifState& vs) {
  IgmpMessage query;
  query.type = IgmpType::kMembershipQuery;
  query.code = static_cast<std::uint8_t>(config_.query_response_interval /
                                         (kSecond / 10));  // tenths of seconds
  query.group = Ipv4Address{};  // general query
  callbacks_.send(vs.vif, kAllSystemsGroup, query);
  if (vs.startup_queries_left > 0) --vs.startup_queries_left;
  ScheduleNextQuery(vs);
}

void RouterIgmp::ScheduleNextQuery(VifState& vs) {
  const SimDuration delay = vs.startup_queries_left > 0
                                ? config_.startup_query_interval
                                : config_.query_interval;
  vs.query_timer.Schedule(delay, [this, &vs] {
    if (vs.querier) SendGeneralQuery(vs);
  });
}

void RouterIgmp::OnMessage(VifIndex vif, Ipv4Address src,
                           const IgmpMessage& msg) {
  VifState& vs = MustVif(vif);
  switch (msg.type) {
    case IgmpType::kMembershipQuery:
      HandleQuery(vs, src, msg);
      break;
    case IgmpType::kMembershipReport: {
      std::unique_ptr<GroupPresence>& presence = vs.groups[msg.group];
      const bool newly = presence == nullptr;
      if (newly) {
        OBS_TRACE(sim_->trace(), .time = sim_->Now(),
                  .kind = obs::TraceKind::kIgmp, .name = "member-appeared",
                  .node = self_.value(), .group = msg.group,
                  .arg_a = static_cast<std::uint64_t>(vif));
      }
      RefreshGroup(vs, msg.group, presence, config_.GroupMembershipTimeout(),
                   /*from_leave=*/false);
      if (callbacks_.on_report) {
        callbacks_.on_report(vif, msg.group, src, newly);
      }
      break;
    }
    case IgmpType::kLeaveGroup:
      HandleLeave(vs, src, msg.group);
      break;
    case IgmpType::kRpCoreReport:
      if (callbacks_.on_core_report) callbacks_.on_core_report(vif, msg);
      break;
    case IgmpType::kJoinConfirmation:
      // Host-facing notification (section 2.5 -03); routers ignore it.
      break;
  }
}

void RouterIgmp::HandleQuery(VifState& vs, Ipv4Address src,
                             const IgmpMessage& msg) {
  // Querier election (section 2.3): yield to a lower-addressed querier.
  const Ipv4Address mine = MyAddress(vs.vif);
  if (src < mine) {
    if (vs.querier) {
      OBS_TRACE(sim_->trace(), .time = sim_->Now(),
                .kind = obs::TraceKind::kIgmp, .name = "querier-deposed",
                .node = self_.value(),
                .arg_a = static_cast<std::uint64_t>(vs.vif),
                .arg_b = src.bits());
    }
    if (vs.querier) ++state_version_;
    vs.querier = false;
    vs.other_querier = src;
    vs.query_timer.Cancel();
    vs.other_querier_timer.Schedule(
        config_.OtherQuerierPresentTimeout(), [this, &vs] {
          // The other querier went silent: take over.
          vs.querier = true;
          vs.other_querier = Ipv4Address{};
          ++state_version_;
          OBS_TRACE(sim_->trace(), .time = sim_->Now(),
                    .kind = obs::TraceKind::kIgmp, .name = "querier-elected",
                    .node = self_.value(),
                    .arg_a = static_cast<std::uint64_t>(vs.vif));
          SendGeneralQuery(vs);
        });
  }
  // A group-specific query means the querier is chasing a leave. Every
  // router on the LAN (queriers and non-queriers alike) shortens its
  // expiry for that group to the last-member window; a surviving member's
  // report will stretch it back out. This keeps G-DRs — which track
  // membership passively — in sync with leave latency (section 2.7).
  if (!msg.group.IsUnspecified() && src != mine) {
    const auto it = vs.groups.find(msg.group);
    if (it != vs.groups.end()) {
      RefreshGroup(vs, msg.group, it->second, config_.LastMemberTimeout(),
                   /*from_leave=*/true);
    }
  }
}

void RouterIgmp::HandleLeave(VifState& vs, Ipv4Address /*src*/,
                             Ipv4Address group) {
  const auto it = vs.groups.find(group);
  if (it == vs.groups.end()) return;
  if (!vs.querier) return;  // only the querier chases leaves (section 2.7)
  OBS_TRACE(sim_->trace(), .time = sim_->Now(),
            .kind = obs::TraceKind::kIgmp, .name = "leave-heard",
            .node = self_.value(), .group = group,
            .arg_a = static_cast<std::uint64_t>(vs.vif));

  // Send group-specific queries; if no member answers within the response
  // window the group expires.
  for (int i = 0; i < config_.last_member_query_count; ++i) {
    sim_->Schedule(i * config_.last_member_query_interval, [this, &vs, group] {
      if (!vs.groups.contains(group)) return;
      IgmpMessage query;
      query.type = IgmpType::kMembershipQuery;
      query.code = static_cast<std::uint8_t>(config_.last_member_query_interval /
                                             (kSecond / 10));
      query.group = group;
      callbacks_.send(vs.vif, group, query);
    });
  }
  RefreshGroup(vs, group, it->second, config_.LastMemberTimeout(),
               /*from_leave=*/true);
}

void RouterIgmp::RefreshGroup(VifState& vs, Ipv4Address group,
                              std::unique_ptr<GroupPresence>& presence,
                              SimDuration timeout, bool from_leave) {
  if (presence == nullptr) {
    presence = std::make_unique<GroupPresence>();
    ++state_version_;
  }
  presence->leave_pending = from_leave;
  presence->expiry.BindTo(*sim_);
  presence->expiry.Schedule(timeout, [this, &vs, group] {
    vs.groups.erase(group);
    ++state_version_;
    OBS_TRACE(sim_->trace(), .time = sim_->Now(),
              .kind = obs::TraceKind::kIgmp, .name = "member-expired",
              .node = self_.value(), .group = group,
              .arg_a = static_cast<std::uint64_t>(vs.vif));
    if (callbacks_.on_group_expired) callbacks_.on_group_expired(vs.vif, group);
  });
}

bool RouterIgmp::IsQuerier(VifIndex vif) const {
  const VifState* vs = FindVif(vif);
  return vs != nullptr && vs->querier;
}

Ipv4Address RouterIgmp::QuerierAddress(VifIndex vif) const {
  const VifState* vs = FindVif(vif);
  if (vs == nullptr) return Ipv4Address{};
  return vs->querier ? MyAddress(vif) : vs->other_querier;
}

bool RouterIgmp::HasMembers(VifIndex vif, Ipv4Address group) const {
  const VifState* vs = FindVif(vif);
  return vs != nullptr && vs->groups.contains(group);
}

bool RouterIgmp::AnyMembers(Ipv4Address group) const {
  for (const auto& vs : vifs_) {
    if (vs->groups.contains(group)) return true;
  }
  return false;
}

std::vector<VifIndex> RouterIgmp::MemberVifs(Ipv4Address group) const {
  std::vector<VifIndex> out;
  for (const auto& vs : vifs_) {
    if (vs->groups.contains(group)) out.push_back(vs->vif);
  }
  return out;
}

std::vector<Ipv4Address> RouterIgmp::PresentGroups() const {
  std::vector<Ipv4Address> out;
  for (const auto& vs : vifs_) {
    for (const auto& [group, presence] : vs->groups) {
      if (std::find(out.begin(), out.end(), group) == out.end()) {
        out.push_back(group);
      }
    }
  }
  return out;
}

const RouterIgmp::VifState* RouterIgmp::FindVif(VifIndex vif) const {
  // vifs_ is index-aligned with the node's interfaces (see constructor).
  if (vif < 0 || static_cast<std::size_t>(vif) >= vifs_.size()) return nullptr;
  return vifs_[static_cast<std::size_t>(vif)].get();
}

RouterIgmp::VifState& RouterIgmp::MustVif(VifIndex vif) {
  const bool known = FindVif(vif) != nullptr;
  assert(known && "unknown vif");
  return known ? *vifs_[static_cast<std::size_t>(vif)] : *vifs_.front();
}

}  // namespace cbt::igmp
