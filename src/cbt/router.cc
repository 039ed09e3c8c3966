#include "cbt/router.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/small_vec.h"

namespace cbt::core {

using packet::AckSubcode;
using packet::ControlPacket;
using packet::ControlType;
using packet::IgmpMessage;
using packet::IpProtocol;
using packet::JoinSubcode;

namespace {

/// True if the echo `pkt` covers `group`: its own group, or for an
/// aggregated echo the Figure 9 range (mask 0 covers every group).
bool EchoCovers(const ControlPacket& pkt, Ipv4Address group) {
  if (!pkt.aggregate) return group == pkt.group;
  return (group.bits() & pkt.group_mask) == (pkt.group.bits() & pkt.group_mask);
}

}  // namespace

CbtRouter::CbtRouter(netsim::Simulator& sim, NodeId self,
                     routing::RouteManager& routes,
                     const GroupDirectory& directory, CbtConfig config,
                     igmp::IgmpConfig igmp_config)
    : sim_(&sim),
      self_(self),
      routes_(&routes),
      directory_(&directory),
      config_(config),
      primary_address_(sim.PrimaryAddress(self)),
      igmp_(sim, self, igmp_config,
            igmp::RouterIgmp::Callbacks{
                [this](VifIndex vif, Ipv4Address group, Ipv4Address reporter,
                       bool newly) {
                  OnMemberReport(vif, group, reporter, newly);
                },
                [this](VifIndex vif, const IgmpMessage& msg) {
                  OnCoreReport(vif, msg);
                },
                [this](VifIndex vif, Ipv4Address group) {
                  OnGroupExpired(vif, group);
                },
                [this](VifIndex vif, Ipv4Address dst, const IgmpMessage& msg) {
                  SendIgmp(vif, dst, msg);
                }}) {
  echo_timer_.BindTo(sim);
  child_scan_timer_.BindTo(sim);
  iff_scan_timer_.BindTo(sim);
}

void CbtRouter::Start() {
  igmp_.Start();
  echo_timer_.Schedule(config_.echo_interval, [this] { OnEchoTick(); });
  child_scan_timer_.Schedule(config_.child_assert_interval,
                             [this] { OnChildScan(); });
  iff_scan_timer_.Schedule(config_.iff_scan_interval, [this] { OnIffScan(); });
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void CbtRouter::OnDatagram(VifIndex vif, Ipv4Address /*link_src*/,
                           Ipv4Address /*link_dst*/,
                           std::span<const std::uint8_t> datagram) {
  if (!alive_) return;
  const auto parsed = packet::ParseDatagram(datagram);
  if (!parsed) {
    ++stats_.malformed_control;
    return;
  }
  const packet::Ipv4Header& ip = parsed->ip;

  switch (ip.protocol) {
    case IpProtocol::kIgmp: {
      const auto igmp_msg = packet::ExtractIgmp(*parsed);
      if (!igmp_msg) {
        ++stats_.malformed_control;
        return;
      }
      igmp_.OnMessage(vif, ip.src, *igmp_msg);
      return;
    }
    case IpProtocol::kUdp: {
      if (!OwnsAddress(ip.dst) && !ip.dst.IsMulticast()) {
        // Transit: e.g. the primary core's direct REJOIN-NACTIVE ack.
        ForwardUnicast(ip, datagram);
        return;
      }
      const auto control = packet::ExtractControl(*parsed);
      if (!control) {
        ++stats_.malformed_control;
        return;
      }
      HandleControl(vif, ip, *control);
      return;
    }
    case IpProtocol::kCbt:
      TimeStage([&] { HandleCbtData(vif, *parsed, datagram); });
      return;
    default:
      TimeStage([&] {
        if (!ip.dst.IsMulticast()) {
          if (!OwnsAddress(ip.dst)) ForwardUnicast(ip, datagram);
        } else if (!ip.dst.IsLinkLocalMulticast()) {
          HandleNativeData(vif, ip, datagram);
        }
      });
      return;
  }
}

void CbtRouter::HandleControl(VifIndex vif, const packet::Ipv4Header& ip,
                              const ControlPacket& pkt) {
  OBS_TRACE_VERBOSE(sim_->trace(), .time = sim_->Now(),
                    .kind = obs::TraceKind::kPacket,
                    .name = packet::ControlTypeName(pkt.type),
                    .node = self_.value(), .group = pkt.group,
                    .arg_a = ip.src.bits(), .detail = "rx");
  switch (pkt.type) {
    case ControlType::kJoinRequest:
      HandleJoinRequest(vif, ip, pkt);
      return;
    case ControlType::kJoinAck:
      HandleJoinAck(vif, ip, pkt);
      return;
    case ControlType::kJoinNack:
      HandleJoinNack(vif, ip, pkt);
      return;
    case ControlType::kQuitRequest:
      HandleQuitRequest(vif, ip, pkt);
      return;
    case ControlType::kQuitAck:
      HandleQuitAck(pkt);
      return;
    case ControlType::kFlushTree:
      HandleFlush(vif, ip, pkt);
      return;
    case ControlType::kEchoRequest:
      HandleEchoRequest(vif, ip, pkt);
      return;
    case ControlType::kEchoReply:
      HandleEchoReply(vif, ip, pkt);
      return;
    case ControlType::kCorePing:
      HandleCorePing(ip, pkt);
      return;
    case ControlType::kPingReply:
      HandlePingReply(pkt);
      return;
  }
}

// ---------------------------------------------------------------------------
// Join handling (sections 2.5, 2.6, 6.2, 6.3).
// ---------------------------------------------------------------------------

void CbtRouter::HandleJoinRequest(VifIndex vif, const packet::Ipv4Header& ip,
                                  const ControlPacket& pkt) {
  ++stats_.joins_received;
  if (pkt.join_subcode() == JoinSubcode::kRejoinNactive) {
    HandleRejoinNactive(pkt);
    return;
  }

  const Ipv4Address group = pkt.group;
  FibEntry* entry = fib_.Find(group);
  const DownstreamRequester requester{vif, ip.src, pkt.origin,
                                      pkt.join_subcode()};

  // Section 2.5: a router awaiting its own JOIN-ACK "is not permitted to
  // acknowledge any subsequent joins ... rather, the router caches such
  // joins". This must be checked before the on-tree test: a reconnecting
  // router still holds a (parentless) FIB entry but is NOT attached, and
  // acking from it would graft the requester onto a detached subtree.
  // Cores are exempt — they are valid anchors as soon as they know their
  // role, even while re-joining the primary.
  const bool anchored =
      entry != nullptr && (entry->is_core || entry->HasParent());
  if (!anchored) {
    if (const auto it = pending_.find(group); it != pending_.end()) {
      PendingJoin& p = *it->second;
      const bool duplicate = std::any_of(
          p.requesters.begin(), p.requesters.end(),
          [&](const DownstreamRequester& r) {
            return r.from == requester.from && r.origin == requester.origin;
          });
      if (!duplicate) {
        p.requesters.push_back(requester);
        ++stats_.joins_cached;
      }
      return;
    }
  }

  if (anchored) {
    // Already on-tree: terminate the join here (section 2.2).
    TerminateJoin(requester, pkt, *entry);
    if (pkt.join_subcode() == JoinSubcode::kRejoinActive &&
        !OwnsAddress(pkt.target_core)) {
      SendRejoinNactive(*entry, pkt.origin, pkt.cores);
    }
    return;
  }

  if (OwnsAddress(pkt.target_core)) {
    if (directory_->Knows(group)) {
      // A join built from a stale core list can still target us after the
      // directory dropped us from the group (core-list replacement). Do
      // not re-assume the anchor role — nack so the requester re-elects
      // from the current mapping instead of resurrecting the old tree.
      if (OwnedCore(directory_->CoresFor(group)).IsUnspecified()) {
        SendNackTo(requester, group, pkt.target_core,
                   directory_->CoresFor(group));
        return;
      }
    }
    // Section 6.2: "a core only becomes aware that it is such by receiving
    // a JOIN-REQUEST". Install as tree (sub)root.
    FibEntry& core_entry = fib_.Create(group);
    core_entry.cores.assign(pkt.cores.begin(), pkt.cores.end());
    AnchorAsCore(core_entry, pkt.target_core,
                 !pkt.cores.empty() && OwnsAddress(pkt.cores.front()));
    TerminateJoin(requester, pkt, core_entry);
    // Non-primary core: ack first, then join the primary (section 2.5).
    CoreRejoinPrimary(core_entry);
    return;
  }

  // Off-tree transit router: create transient state and forward. Only a
  // locally originated join elects another core, so core_index stays 0.
  PendingJoin& ref = AddPendingJoin(
      group, std::vector<Ipv4Address>(pkt.cores.begin(), pkt.cores.end()), 0,
      pkt.target_core, pkt.join_subcode(), pkt.origin,
      /*locally_originated=*/false);
  ref.requesters.push_back(requester);
  if (!ForwardJoin(ref)) {
    PendingJoinFailed(group);
  }
}

void CbtRouter::HandleRejoinNactive(const ControlPacket& pkt) {
  const Ipv4Address group = pkt.group;

  if (OwnsAddress(pkt.origin)) {
    // Section 6.3: our own rejoin came back — a transient loop. Quit the
    // newly-established parent (or abort the still-pending join; the
    // NACTIVE can outrun our own JOIN-ACK) and retry.
    ++stats_.loops_detected;
    FibEntry* entry = fib_.Find(group);
    // arg_a=1: a FIB entry remains, so the scheduled backoff below will
    // fire a fresh reconnect — the section 6.3 fallback the checker's
    // loop-detect expectation keys off.
    OBS_TRACE(sim_->trace(), .time = sim_->Now(),
              .kind = obs::TraceKind::kFsm, .name = "loop-detected",
              .node = self_.value(), .group = group,
              .arg_a = entry != nullptr ? 1u : 0u);
    if (entry != nullptr && entry->HasParent()) {
      SendQuitTo(group, entry->parent_vif, entry->parent_address);
      entry->parent_address = Ipv4Address{};
      entry->parent_vif = kInvalidVif;
      entry->Touch();
    } else if (const auto it = pending_.find(group); it != pending_.end()) {
      // Ack not yet back: cancel the transient join so the late ack is
      // ignored, and tell the upstream hop to drop the branch it built.
      SendQuitTo(group, it->second->upstream_vif,
                 it->second->upstream_next_hop);
      if (it->second->locally_originated) {
        EndSpan("join", group, it->second->txn, "loop-abort");
      }
      pending_.erase(it);
    }
    // "It then attempts to re-join again" (-02 section 5.3); retry after a
    // backoff so unicast routing has a chance to reconverge.
    sim_->Schedule(config_.pend_join_interval,
                   [this, group] { StartReconnect(group); });
    if (callbacks_.on_loop_detected) callbacks_.on_loop_detected(group);
    return;
  }

  FibEntry* entry = fib_.Find(group);
  if (entry == nullptr) return;  // stale; drop

  if (!entry->is_primary_core && !entry->HasParent()) {
    // Detached (re-joining) subtree root: we cannot forward the probe
    // yet. Defer it until our own join resolves so concurrent subtree
    // reconnects still detect mutual-adoption loops.
    if (const auto it = pending_.find(group); it != pending_.end()) {
      it->second->deferred_nactives.push_back(pkt);
    }
    return;
  }

  if (entry->is_primary_core) {
    // Section 8.3.1: the primary core acks a REJOIN-NACTIVE directly to
    // the converting router, whose address rides in the core-address field.
    ControlPacket ack;
    ack.type = ControlType::kJoinAck;
    ack.code = static_cast<std::uint8_t>(AckSubcode::kRejoinNactive);
    ack.group = group;
    ack.origin = pkt.origin;
    ack.target_core = pkt.target_core;
    ack.cores = entry->cores;
    const auto route = routes_->NextHopToward(self_, pkt.target_core);
    if (route) {
      ++stats_.acks_sent;
      SendControl(route->vif, route->next_hop, pkt.target_core, ack);
    }
    return;
  }

  // Attached non-primary router: the loop-detection packet continues up
  // the tree unchanged.
  ++stats_.joins_forwarded;
  SendControl(entry->parent_vif, entry->parent_address, entry->parent_address,
              pkt);
}

void CbtRouter::TerminateJoin(const DownstreamRequester& req,
                              const ControlPacket& pkt, FibEntry& entry) {
  if (entry.cores.empty() && !pkt.cores.empty()) {
    entry.cores.assign(pkt.cores.begin(), pkt.cores.end());
    entry.Touch();
  }
  SendAckTo(req, entry);
}

void CbtRouter::AnchorAsCore(FibEntry& entry, Ipv4Address affiliation,
                             bool primary, const char* detail) {
  entry.affiliation = affiliation;
  entry.is_core = true;
  entry.is_primary_core = primary;
  entry.Touch();
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .name = "core-anchored", .node = self_.value(),
            .group = entry.group, .arg_a = primary ? 1u : 0u,
            .detail = detail);
}

bool CbtRouter::ShouldProxyAck(const DownstreamRequester& req) const {
  if (!config_.enable_proxy_ack) return false;
  // Section 2.6: the final ack hop travels over the very subnet the origin
  // D-DR sits on, the requester *is* the origin, and the subnet is a
  // multi-access LAN (a branch rooted at us serves its members directly).
  // Rejoining routers have children and must keep their state.
  if (req.subcode != JoinSubcode::kActiveJoin) return false;
  if (req.from != req.origin) return false;
  if (!SubnetContains(req.vif, req.origin)) return false;
  return sim_->subnet(VifSubnet(req.vif)).multi_access;
}

void CbtRouter::SendAckTo(const DownstreamRequester& req, FibEntry& entry) {
  ControlPacket ack;
  ack.type = ControlType::kJoinAck;
  ack.group = entry.group;
  ack.origin = req.origin;
  // "Actual core affiliation" — the core this (sub)tree hangs from. On a
  // single-core tree that is the primary; under a k-core partition it is
  // whichever assigned core our own branch attached to.
  ack.target_core = !entry.affiliation.IsUnspecified()
                        ? entry.affiliation
                        : (entry.cores.empty() ? Ipv4Address{}
                                               : entry.cores.front());
  ack.cores = entry.cores;

  if (ShouldProxyAck(req)) {
    ack.code = static_cast<std::uint8_t>(AckSubcode::kProxyAck);
    ++stats_.proxy_acks_sent;
    // We become the G-DR for the group on this LAN; the origin keeps no
    // state and no child entry is created (section 2.6).
    gdr_.insert({entry.group, VifSubnet(req.vif)});
    ++dataplane_epoch_;
  } else {
    ack.code = static_cast<std::uint8_t>(AckSubcode::kNormal);
    ++stats_.acks_sent;
    entry.AddChild(req.from, req.vif, sim_->Now());
    OBS_TRACE(sim_->trace(), .time = sim_->Now(),
              .kind = obs::TraceKind::kFsm, .name = "child-added",
              .node = self_.value(), .group = entry.group,
              .arg_a = req.from.bits(), .arg_b = VifAddress(req.vif).bits());
  }
  SendControl(req.vif, req.from, req.from, ack);
}

void CbtRouter::SendNackTo(const DownstreamRequester& req, Ipv4Address group,
                           Ipv4Address target_core,
                           std::span<const Ipv4Address> cores) {
  ControlPacket nack;
  nack.type = ControlType::kJoinNack;
  nack.group = group;
  nack.origin = req.origin;
  nack.target_core = target_core;
  nack.cores = cores;
  ++stats_.nacks_sent;
  SendControl(req.vif, req.from, req.from, nack);
}

void CbtRouter::SendRejoinNactive(const FibEntry& entry, Ipv4Address origin,
                                  std::span<const Ipv4Address> cores) {
  // Section 6.3: the first on-tree router converts a REJOIN-ACTIVE to
  // REJOIN-NACTIVE, keeps the origin, inserts its own address in the
  // core-address field, and forwards over its parent interface. A core,
  // or a router with no parent to forward over, does not convert.
  if (entry.is_core || !entry.HasParent()) return;
  ++stats_.rejoins_converted;
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .name = "rejoin-converted", .node = self_.value(),
            .group = entry.group);
  ControlPacket nactive;
  nactive.type = ControlType::kJoinRequest;
  nactive.code = static_cast<std::uint8_t>(JoinSubcode::kRejoinNactive);
  nactive.group = entry.group;
  nactive.origin = origin;
  nactive.target_core = VifAddress(entry.parent_vif);
  nactive.cores = cores;
  ++stats_.joins_forwarded;
  SendControl(entry.parent_vif, entry.parent_address, entry.parent_address,
              nactive);
}

void CbtRouter::AckRequesters(PendingJoin& pending, FibEntry& entry) {
  for (const DownstreamRequester& req : pending.requesters) {
    SendAckTo(req, entry);
    if (req.subcode == JoinSubcode::kRejoinActive &&
        pending.subcode != JoinSubcode::kRejoinActive) {
      // A cached rejoin resolved here while the join we ourselves
      // forwarded was a plain ACTIVE-JOIN: no upstream router saw the
      // rejoin, so the loop-detection conversion must happen here. (When
      // the forwarded join was itself a REJOIN-ACTIVE, the terminating
      // router already converted it — converting again would duplicate
      // the NACTIVE probe.)
      SendRejoinNactive(entry, req.origin, entry.cores);
    }
  }
  pending.requesters.clear();
}

void CbtRouter::HandleJoinAck(VifIndex vif, const packet::Ipv4Header& ip,
                              const ControlPacket& pkt) {
  ++stats_.acks_received;
  if (pkt.ack_subcode() == AckSubcode::kRejoinNactive) {
    // Primary core's direct confirmation of a NACTIVE rejoin we converted;
    // our state was already fixed when we converted, nothing to update.
    return;
  }

  const Ipv4Address group = pkt.group;
  const auto it = pending_.find(group);
  if (it == pending_.end()) return;  // duplicate/stale ack
  PendingJoin& p = *it->second;
  if (vif != p.upstream_vif || ip.src != p.upstream_next_hop) {
    return;  // not from the hop we joined through
  }
  const bool locally = p.locally_originated;
  const bool was_reconnect = p.reconnect;
  const std::uint64_t txn = p.txn;

  if (pkt.ack_subcode() == AckSubcode::kProxyAck) {
    ++stats_.proxy_acks_received;
    // Section 2.6: cancel all transient state; the sender is now G-DR.
    proxied_groups_[group] = sim_->Now();
    ++dataplane_epoch_;
    pending_.erase(it);
    if (locally) JoinEstablished(group, txn, "proxy-acked");
    return;
  }

  // Normal ack: "the receipt of a JOIN-ACK ... actually creates a tree
  // branch."
  FibEntry& entry = fib_.Create(group);
  if (!pkt.cores.empty()) {
    entry.cores.assign(pkt.cores.begin(), pkt.cores.end());
  } else {
    entry.cores = p.cores;
  }
  entry.parent_address = ip.src;
  entry.parent_vif = vif;
  entry.Touch();
  entry.last_parent_reply = sim_->Now();
  const Ipv4Address owned = OwnedCore(entry.cores);
  if (!owned.IsUnspecified()) entry.is_core = true;
  entry.is_primary_core =
      !entry.cores.empty() && OwnsAddress(entry.cores.front());
  if (!entry.is_core) {
    // Adopt the upstream's core affiliation; a core keeps its own.
    entry.affiliation = pkt.target_core;
  } else if (entry.affiliation.IsUnspecified()) {
    entry.affiliation = owned;
  }
  // The attach event proper: every router (transit or originator) that
  // gains a parent via an ack emits one, before any child-added events it
  // produces by acking cached requesters — the checker's ack-before-attach
  // expectation relies on that order.
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .name = "branch-up", .node = self_.value(), .group = group,
            .arg_a = ip.src.bits(), .txn = p.txn);

  AckRequesters(p, entry);
  // Re-emit loop probes that were waiting for us to gain a parent.
  const std::vector<ControlPacket> deferred =
      std::move(p.deferred_nactives);
  pending_.erase(it);
  for (const ControlPacket& probe : deferred) {
    HandleRejoinNactive(probe);
  }

  // "Immediately subsequent to a parent/child relationship being
  // established, a child unicasts a CBT-ECHO-REQUEST to its parent."
  SendEchoRequest(entry, VifAddress(entry.parent_vif));

  if (!locally) return;
  if (was_reconnect) {
    EndSpan("join", group, txn, "reconnected");
    ++stats_.reconnects_succeeded;
    if (callbacks_.on_reconnected) callbacks_.on_reconnected(group);
  } else {
    JoinEstablished(group, txn, "established");
  }
}

void CbtRouter::JoinEstablished(Ipv4Address group, std::uint64_t txn,
                                const char* outcome) {
  EndSpan("join", group, txn, outcome);
  // Section 2.5 (-03) proposal: tell waiting member hosts the tree is up.
  if (config_.notify_hosts_on_join) {
    for (const VifIndex vif : igmp_.MemberVifs(group)) {
      IgmpMessage note;
      note.type = packet::IgmpType::kJoinConfirmation;
      note.group = group;
      SendIgmp(vif, group, note);
    }
  }
  if (callbacks_.on_group_established) callbacks_.on_group_established(group);
}

void CbtRouter::HandleJoinNack(VifIndex /*vif*/, const packet::Ipv4Header& ip,
                               const ControlPacket& pkt) {
  ++stats_.nacks_received;
  const auto it = pending_.find(pkt.group);
  if (it == pending_.end()) return;
  PendingJoin& p = *it->second;
  if (ip.src != p.upstream_next_hop) return;

  TryOtherCores(p);
}

// ---------------------------------------------------------------------------
// Join origination and transit forwarding.
// ---------------------------------------------------------------------------

void CbtRouter::InitiateJoin(Ipv4Address group, std::vector<Ipv4Address> cores,
                             std::size_t target_index) {
  StartJoin(group, std::move(cores), target_index, /*reconnect=*/false);
}

void CbtRouter::StartJoin(Ipv4Address group, std::vector<Ipv4Address> cores,
                          std::size_t target_index, bool reconnect) {
  if (!alive_ || cores.empty() || pending_.contains(group)) return;
  if (target_index >= cores.size()) target_index = 0;

  const Ipv4Address target = cores[target_index];
  if (OwnsAddress(target)) {
    // We are the target core ourselves: instant tree (sub)root.
    FibEntry& entry = fib_.Create(group);
    if (entry.cores.empty()) entry.cores = cores;
    AnchorAsCore(entry, target, OwnsAddress(cores.front()));
    CoreRejoinPrimary(entry);
    if (!reconnect && callbacks_.on_group_established) {
      callbacks_.on_group_established(group);
    }
    return;
  }

  FibEntry* entry = fib_.Find(group);
  const JoinSubcode subcode = (entry != nullptr && !entry->children.empty())
                                  ? JoinSubcode::kRejoinActive
                                  : JoinSubcode::kActiveJoin;

  // Origin address selection: use the member LAN's address when the group
  // has exactly one local member subnet, so that the section 2.6 proxy-ack
  // check fires only when the join's first hop crosses that same LAN.
  const std::vector<VifIndex> member_vifs = igmp_.MemberVifs(group);
  const Ipv4Address origin = member_vifs.size() == 1
                                 ? VifAddress(member_vifs.front())
                                 : primary_address_;

  PendingJoin& ref = AddPendingJoin(group, std::move(cores), target_index,
                                    target, subcode, origin,
                                    /*locally_originated=*/true, reconnect);
  if (!ForwardJoin(ref)) TryOtherCores(ref);
}

CbtRouter::PendingJoin& CbtRouter::AddPendingJoin(
    Ipv4Address group, std::vector<Ipv4Address> cores, std::size_t core_index,
    Ipv4Address target_core, JoinSubcode subcode, Ipv4Address origin,
    bool locally_originated, bool reconnect, bool core_rejoin) {
  auto p = std::make_unique<PendingJoin>();
  p->group = group;
  p->cores = std::move(cores);
  p->core_index = core_index;
  p->target_core = target_core;
  p->subcode = subcode;
  p->origin = origin;
  p->locally_originated = locally_originated;
  p->reconnect = reconnect;
  p->core_rejoin = core_rejoin;
  if (locally_originated) p->txn = NextTxn();
  p->core_attempt_started = sim_->Now();
  p->rtx_timer.BindTo(*sim_);
  p->expire_timer.BindTo(*sim_);
  PendingJoin& ref = *p;
  pending_[group] = std::move(p);
  if (!locally_originated) {
    ++stats_.joins_forwarded;
    return ref;
  }
  ++stats_.joins_originated;
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .phase = obs::TracePhase::kBegin, .name = "join",
            .node = self_.value(), .group = group,
            .arg_a = ref.target_core.bits(),
            .arg_b = core_rejoin ? 2u : (reconnect ? 1u : 0u), .txn = ref.txn);
  return ref;
}

void CbtRouter::ElectNextCore(PendingJoin& p) {
  p.core_index = (p.core_index + 1) % p.cores.size();
  p.target_core = p.cores[p.core_index];
  p.core_attempt_started = sim_->Now();
}

void CbtRouter::TryOtherCores(PendingJoin& p) {
  // Section 6.1: if a core is unreachable, "an alternate core is
  // arbitrarily elected from the core list" — cycle until one routes.
  for (std::size_t attempt = 1;
       p.locally_originated && attempt < p.cores.size(); ++attempt) {
    ElectNextCore(p);
    if (!OwnsAddress(p.target_core) && ForwardJoin(p)) return;
  }
  PendingJoinFailed(p.group);
}

std::optional<routing::NextHop> CbtRouter::ResolveToward(
    Ipv4Address target) {
  if (tunnels_.HasRankingFor(target)) {
    const auto endpoint = tunnels_.SelectPath(*sim_, self_, target);
    if (!endpoint) return std::nullopt;
    routing::NextHop route;
    route.vif = endpoint->vif;
    route.next_hop = !endpoint->remote.IsUnspecified()
                         ? endpoint->remote
                         : NeighborAddressOn(endpoint->vif, target);
    if (route.next_hop.IsUnspecified()) return std::nullopt;
    route.cost = 1.0;
    return route;
  }
  return routes_->NextHopToward(self_, target);
}

Ipv4Address CbtRouter::NeighborAddressOn(VifIndex vif,
                                         Ipv4Address target) const {
  if (SubnetContains(vif, target)) return target;
  Ipv4Address best;
  const netsim::SubnetRecord& subnet = sim_->subnet(VifSubnet(vif));
  for (const auto& [peer, peer_vif] : subnet.attachments) {
    if (peer == self_ || !sim_->node(peer).is_router) continue;
    const Ipv4Address addr = sim_->interface(peer, peer_vif).address;
    if (best.IsUnspecified() || addr < best) best = addr;
  }
  return best;
}

VifMode CbtRouter::EffectiveMode(VifIndex vif) const {
  return tunnels_.ModeOf(
      vif, config_.native_mode ? VifMode::kNative : VifMode::kCbtTunnel);
}

bool CbtRouter::ForwardJoin(PendingJoin& p) {
  const auto route = ResolveToward(p.target_core);
  if (!route || route->vif == kInvalidVif) return false;

  // Section 2.7 re-configuration: if the best next-hop is one of our
  // children, tear that branch down (FLUSH) before joining through it.
  // (A core's rejoin only reaches here after a successful CBT-CORE-PING,
  // so flushing a child branch to route through it will re-converge.)
  if (FibEntry* entry = fib_.Find(p.group);
      entry != nullptr && entry->FindChild(route->next_hop) != nullptr) {
    SendFlush(p.group, route->vif, route->next_hop);
    entry->RemoveChild(route->next_hop);
    TraceChildRemoved(p.group, route->next_hop, "reconfigure");
  }

  SendJoin(p, *route);

  const Ipv4Address group = p.group;
  p.rtx_timer.Schedule(config_.pend_join_interval,
                       [this, group] { RetransmitJoin(group); });
  const SimDuration lifetime = p.locally_originated && p.reconnect
                                   ? config_.reconnect_timeout
                                   : config_.expire_pending_join;
  p.expire_timer.Schedule(lifetime, [this, group] { PendingJoinFailed(group); });
  return true;
}

void CbtRouter::SendJoin(PendingJoin& p, const routing::NextHop& route) {
  p.upstream_vif = route.vif;
  p.upstream_next_hop = route.next_hop;
  ControlPacket join;
  join.type = ControlType::kJoinRequest;
  join.code = static_cast<std::uint8_t>(p.subcode);
  join.group = p.group;
  join.origin = p.origin;
  join.target_core = p.target_core;
  join.cores = p.cores;
  SendControl(p.upstream_vif, p.upstream_next_hop, p.upstream_next_hop, join);
}

void CbtRouter::RetransmitJoin(Ipv4Address group) {
  const auto it = pending_.find(group);
  if (it == pending_.end()) return;
  PendingJoin& p = *it->second;

  if (p.locally_originated &&
      sim_->Now() - p.core_attempt_started >= config_.pend_join_timeout &&
      p.cores.size() > 1) {
    // PEND-JOIN-TIMEOUT: elect a different core (section 6.1).
    ElectNextCore(p);
  }

  ++stats_.join_retransmits;
  const auto route = ResolveToward(p.target_core);
  if (route && route->vif != kInvalidVif) SendJoin(p, *route);
  p.rtx_timer.Schedule(config_.pend_join_interval,
                       [this, group] { RetransmitJoin(group); });
}

void CbtRouter::PendingJoinFailed(Ipv4Address group) {
  const auto it = pending_.find(group);
  if (it == pending_.end()) return;
  PendingJoin& p = *it->second;
  if (p.locally_originated) EndSpan("join", group, p.txn, "failed");

  // Propagate failure downstream so cached requesters stop waiting.
  for (const DownstreamRequester& req : p.requesters) {
    SendNackTo(req, group, p.target_core, p.cores);
  }

  const bool was_reconnect = p.reconnect && p.locally_originated;
  const bool was_core_rejoin = p.core_rejoin;
  pending_.erase(it);

  if (was_core_rejoin) {
    // The primary stopped answering between ping and join. Keep
    // anchoring the group and retry (ping-first) after a long backoff —
    // "the core tree is built on-demand".
    sim_->Schedule(config_.reconnect_timeout, [this, group] {
      if (FibEntry* entry = fib_.Find(group)) CoreRejoinPrimary(*entry);
    });
    return;
  }

  if (was_reconnect) {
    ++stats_.reconnects_failed;
    // RECONNECT-TIMEOUT elapsed: give up, flush the subordinate branch so
    // downstream routers re-attach on their own (section 6.1 fallout).
    TearDown(group, "reconnect-failed");
  }
}

void CbtRouter::SimulateRestart() {
  std::vector<Ipv4Address> groups;
  for (const auto& [group, entry] : fib_) groups.push_back(group);
  for (const Ipv4Address& group : groups) RemoveGroupState(group);
  pending_.clear();
  quitting_.clear();
  core_pings_.clear();
  proxied_groups_.clear();
  gdr_.clear();
  learned_cores_.clear();
  ++dataplane_epoch_;
  flow_cache_.Clear();
  stats_.dataplane_cache_occupancy = 0;
}

void CbtRouter::Crash() {
  alive_ = false;
  SimulateRestart();  // wipes FIB + transient state (their timers die too)
  echo_timer_.Cancel();
  child_scan_timer_.Cancel();
  iff_scan_timer_.Cancel();
  igmp_.ShutDown();
  // Emitted after the wipe so this is the node's final event until
  // Restart() — the checker's crash-silence expectation spans strictly
  // between the crash and restart markers.
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .name = "crash", .node = self_.value());
}

void CbtRouter::Restart() {
  alive_ = true;
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .name = "restart", .node = self_.value());
  Start();
}

void CbtRouter::CoreRejoinPrimary(FibEntry& entry) {
  if (!alive_ || !entry.is_core || entry.is_primary_core ||
      entry.HasParent() || entry.cores.empty() ||
      pending_.contains(entry.group) || core_pings_.contains(entry.group)) {
    return;
  }
  // Probe first: the rejoin may have to flush a child branch to route
  // through it, which must not happen while the primary is unreachable
  // (it would livelock the subtree in flush/join cycles).
  auto ping = std::make_unique<CorePingState>();
  ping->target = entry.cores.front();
  ping->timer.BindTo(*sim_);
  core_pings_[entry.group] = std::move(ping);
  SendCorePing(entry.group);
}

void CbtRouter::SendCorePing(Ipv4Address group) {
  const auto it = core_pings_.find(group);
  if (it == core_pings_.end()) return;
  CorePingState& state = *it->second;

  if (state.attempts >= 3) {
    // Primary unreachable: stay a standalone anchor, re-probe later
    // ("the core tree is built on-demand").
    state.attempts = 0;
    state.timer.Schedule(config_.reconnect_timeout,
                         [this, group] { SendCorePing(group); });
    return;
  }
  ++state.attempts;

  const auto route = ResolveToward(state.target);
  if (route && route->vif != kInvalidVif) {
    ControlPacket ping;
    ping.type = ControlType::kCorePing;
    ping.group = group;
    ping.origin = primary_address_;
    ping.target_core = state.target;
    ++stats_.core_pings_sent;
    SendControl(route->vif, route->next_hop, state.target, ping);
  }
  state.timer.Schedule(config_.pend_join_interval,
                       [this, group] { SendCorePing(group); });
}

void CbtRouter::HandleCorePing(const packet::Ipv4Header& ip,
                               const ControlPacket& pkt) {
  // Addressed to us (dispatch guarantees it): answer toward the origin.
  ++stats_.core_pings_received;
  ControlPacket reply;
  reply.type = ControlType::kPingReply;
  reply.group = pkt.group;
  reply.origin = pkt.origin;
  reply.target_core = ip.dst;
  const auto route = ResolveToward(pkt.origin);
  if (route && route->vif != kInvalidVif) {
    ++stats_.ping_replies_sent;
    SendControl(route->vif, route->next_hop, pkt.origin, reply);
  }
}

void CbtRouter::HandlePingReply(const ControlPacket& pkt) {
  ++stats_.ping_replies_received;
  const auto it = core_pings_.find(pkt.group);
  if (it == core_pings_.end()) return;
  core_pings_.erase(it);
  FibEntry* entry = fib_.Find(pkt.group);
  if (entry == nullptr || !entry->is_core || entry->is_primary_core ||
      entry->HasParent() || pending_.contains(pkt.group)) {
    return;
  }
  // The primary answered: the actual rejoin join-request toward it.
  PendingJoin& ref = AddPendingJoin(
      entry->group, entry->cores, 0, entry->cores.front(),  // the primary
      JoinSubcode::kRejoinActive, primary_address_,
      /*locally_originated=*/true, /*reconnect=*/false, /*core_rejoin=*/true);
  if (!ForwardJoin(ref)) {
    PendingJoinFailed(pkt.group);
  }
}

// ---------------------------------------------------------------------------
// Teardown (section 2.7) and flush.
// ---------------------------------------------------------------------------

void CbtRouter::HandleQuitRequest(VifIndex vif, const packet::Ipv4Header& ip,
                                  const ControlPacket& pkt) {
  ++stats_.quits_received;
  FibEntry* entry = fib_.Find(pkt.group);
  if (entry != nullptr && entry->RemoveChild(ip.src)) {
    TraceChildRemoved(pkt.group, ip.src, "quit");
  }

  ControlPacket ack;
  ack.type = ControlType::kQuitAck;
  ack.group = pkt.group;
  ack.origin = pkt.origin;
  ++stats_.quit_acks_sent;
  SendControl(vif, ip.src, ip.src, ack);

  // "R3 subsequently checks whether it in turn can send a quit."
  if (entry != nullptr) QuitCheck(pkt.group);
}

void CbtRouter::HandleQuitAck(const ControlPacket& pkt) {
  ++stats_.quit_acks_received;
  const auto it = quitting_.find(pkt.group);
  if (it == quitting_.end()) return;
  const std::uint64_t txn = it->second->txn;
  quitting_.erase(it);
  EndSpan("quit", pkt.group, txn, "acked");
  RemoveGroupState(pkt.group);
}

std::optional<std::size_t> CbtRouter::AssignedCoreIndex(Ipv4Address group) {
  if (!directory_->HasAssignments(group)) return std::nullopt;
  const std::vector<VifIndex> member_vifs = igmp_.MemberVifs(group);
  if (member_vifs.empty()) return std::nullopt;
  // First member LAN wins: a D-DR whose LANs straddle two partitions still
  // builds a single branch, and the tree covers every LAN either way.
  return directory_->AssignedIndex(group, VifSubnet(member_vifs.front()));
}

void CbtRouter::ReconcileCoreRole(Ipv4Address group) {
  if (!alive_ || pending_.contains(group) || quitting_.contains(group)) return;
  FibEntry* entry = fib_.Find(group);
  if (entry == nullptr || !directory_->Knows(group)) return;
  const std::vector<Ipv4Address> current = directory_->CoresFor(group);
  if (current.empty()) return;
  const Ipv4Address owned = OwnedCore(current);
  const bool should_be_core = !owned.IsUnspecified();
  const bool should_be_primary = should_be_core && OwnsAddress(current.front());
  if (entry->is_core == should_be_core &&
      entry->is_primary_core == should_be_primary) {
    return;
  }

  if (!should_be_core) {
    // The directory replaced the core list and dropped us. Stop anchoring;
    // CBT's soft state has no way to hand an anchor role over in place, so
    // a detached ex-anchor tears its subtree down through the normal flush
    // machinery and every branch re-elects from the current mapping. (The
    // hitless path is the migrator's parent-chain reversal, which re-homes
    // the subtree before this demotion ever sees a detached anchor.)
    entry->is_core = false;
    entry->is_primary_core = false;
    entry->cores = current;
    entry->affiliation = {};
    entry->Touch();
    OBS_TRACE(sim_->trace(), .time = sim_->Now(),
              .kind = obs::TraceKind::kFsm, .name = "core-demoted",
              .node = self_.value(), .group = group);
    if (!entry->HasParent()) {
      const bool rejoin = igmp_.AnyMembers(group);
      TearDown(group, "core-demoted");
      if (rejoin) ScheduleFlushRejoin(group, /*cores=*/std::nullopt);
    }
    return;
  }

  // Promoted, or only the primary flag flipped. Keep any existing parent:
  // a newly-listed core already on the old tree stays attached until the
  // old anchor drains — the make-before-break window of a live migration.
  entry->cores = current;
  AnchorAsCore(*entry, owned, should_be_primary, "reconciled");
  CoreRejoinPrimary(*entry);
}

void CbtRouter::QuitCheck(Ipv4Address group) {
  ReconcileCoreRole(group);
  FibEntry* entry = fib_.Find(group);
  if (entry == nullptr) return;
  // The primary core is the group's permanent anchor. Non-primary cores
  // tear their backbone link down like any leaf once nothing hangs off
  // them — "the core tree is built on-demand" (-03 authors' note) — and
  // re-learn their role from the next join that targets them (6.2).
  if (entry->is_primary_core) return;
  if (!entry->children.empty()) return;
  if (igmp_.AnyMembers(group)) return;
  if (quitting_.contains(group) || pending_.contains(group)) return;

  if (!entry->HasParent()) {
    RemoveGroupState(group);  // detached root with nothing below
    return;
  }
  SendQuit(group);
}

void CbtRouter::SendQuit(Ipv4Address group) {
  FibEntry* entry = fib_.Find(group);
  if (entry == nullptr || !entry->HasParent()) return;

  auto q = std::make_unique<QuitState>();
  q->parent = entry->parent_address;
  q->vif = entry->parent_vif;
  q->txn = NextTxn();
  q->timer.BindTo(*sim_);
  QuitState& ref = *q;
  quitting_[group] = std::move(q);
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .phase = obs::TracePhase::kBegin, .name = "quit",
            .node = self_.value(), .group = group,
            .arg_a = ref.parent.bits(), .txn = ref.txn);

  // Retry loop: "the child nevertheless removes the parent information
  // after some small number (typically 3) of re-tries."
  const auto send = [this, group](auto&& self_fn) -> void {
    const auto it = quitting_.find(group);
    if (it == quitting_.end()) return;
    QuitState& q = *it->second;
    if (q.attempts >= config_.quit_retries) {
      const std::uint64_t txn = q.txn;
      quitting_.erase(it);
      EndSpan("quit", group, txn, "gave-up");
      RemoveGroupState(group);
      return;
    }
    ++q.attempts;
    SendQuitTo(group, q.vif, q.parent);
    q.timer.Schedule(config_.pend_join_interval,
                     [this, self_fn]() { self_fn(self_fn); });
  };
  (void)ref;
  send(send);
}

void CbtRouter::SendQuitTo(Ipv4Address group, VifIndex vif,
                           Ipv4Address parent) {
  ControlPacket quit;
  quit.type = ControlType::kQuitRequest;
  quit.group = group;
  quit.origin = primary_address_;
  quit.target_core = parent;
  ++stats_.quits_sent;
  SendControl(vif, parent, parent, quit);
}

void CbtRouter::SendFlush(Ipv4Address group, VifIndex vif, Ipv4Address child) {
  if (config_.mutation == ProtocolMutation::kSuppressFlush) return;
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .name = "flush-sent", .node = self_.value(), .group = group,
            .arg_a = child.bits(), .arg_b = VifAddress(vif).bits());
  ControlPacket flush;
  flush.type = ControlType::kFlushTree;
  flush.group = group;
  flush.origin = primary_address_;
  ++stats_.flushes_sent;
  SendControl(vif, child, child, flush);
}

void CbtRouter::TearDown(Ipv4Address group, const char* detail,
                         Ipv4Address parent) {
  // Emitted before the downstream flushes so the flush-sent events read
  // as consequences of this one (same timestamp, later sequence).
  if (FibEntry* entry = fib_.Find(group)) {
    OBS_TRACE(sim_->trace(), .time = sim_->Now(),
              .kind = obs::TraceKind::kFsm,
              .name = parent.IsUnspecified() ? "teardown" : "flushed",
              .node = self_.value(), .group = group, .arg_a = parent.bits(),
              .arg_b = entry->children.size(), .detail = detail);
    for (const ChildEntry& child : entry->children) {
      SendFlush(group, child.vif, child.address);
    }
  }
  RemoveGroupState(group);
}

void CbtRouter::ScheduleFlushRejoin(
    Ipv4Address group, std::optional<std::vector<Ipv4Address>> cores) {
  sim_->Schedule(config_.flush_rejoin_delay, [this, group,
                                              cores = std::move(cores)] {
    if (IsOnTree(group) || IsPending(group)) return;
    // Section 6.1 under a k-core partition: rejoin toward this LAN's
    // assigned core, not blindly toward the primary.
    StartJoin(group, cores.has_value() ? *cores : directory_->CoresFor(group),
              AssignedCoreIndex(group).value_or(0), /*reconnect=*/false);
  });
}

void CbtRouter::HandleFlush(VifIndex vif, const packet::Ipv4Header& ip,
                            const ControlPacket& pkt) {
  ++stats_.flushes_received;
  FibEntry* entry = fib_.Find(pkt.group);
  if (entry == nullptr) return;
  // Only the parent may flush us.
  if (!entry->HasParent() || vif != entry->parent_vif ||
      ip.src != entry->parent_address) {
    return;
  }
  const bool had_members = igmp_.AnyMembers(pkt.group);
  std::vector<Ipv4Address> cores = entry->cores;
  if (directory_->Knows(pkt.group)) {
    // Re-resolve from the mapping service: a flush is exactly when a
    // replaced core list must take effect, and the branch's cached list
    // may predate the replacement.
    std::vector<Ipv4Address> current = directory_->CoresFor(pkt.group);
    if (!current.empty()) cores = std::move(current);
  }
  const bool will_rejoin = had_members && !cores.empty();
  TearDown(pkt.group, will_rejoin ? "rejoin-scheduled" : "no-rejoin", ip.src);

  // "Routers that have received a flush message will re-establish
  // themselves on the delivery tree if they have directly connected
  // subnets with group presence."
  if (will_rejoin) ScheduleFlushRejoin(pkt.group, std::move(cores));
}

void CbtRouter::RemoveGroupState(Ipv4Address group) {
  // Close any span the wipe would otherwise orphan: a locally-originated
  // join or an in-flight quit erased here ends without its own outcome
  // event (flush-driven teardown, restart, ...), and the checker must see
  // a terminal rather than report a lost transaction.
  if (const auto it = pending_.find(group);
      it != pending_.end() && it->second->locally_originated) {
    EndSpan("join", group, it->second->txn, "superseded");
  }
  if (const auto it = quitting_.find(group); it != quitting_.end()) {
    EndSpan("quit", group, it->second->txn, "superseded");
  }
  fib_.Remove(group);
  pending_.erase(group);
  quitting_.erase(group);
  core_pings_.erase(group);
  if (proxied_groups_.erase(group) > 0) ++dataplane_epoch_;
  for (auto it = gdr_.begin(); it != gdr_.end();) {
    if (it->first == group) {
      it = gdr_.erase(it);
      ++dataplane_epoch_;
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Keepalives and failure detection (sections 6, 8.4, 9).
// ---------------------------------------------------------------------------

void CbtRouter::OnEchoTick() {
  // Child -> parent echoes, optionally aggregated per parent neighbour.
  // Aggregation carries the covered group range as <low group, mask>
  // (Figure 9): the narrowest common prefix of all groups sharing the
  // parent — "provided aggregation is at all possible; this depends on
  // coordinated multicast address assignment". Disjoint assignments
  // degrade to mask 0 (all groups via this neighbour).
  if (config_.aggregate_echo) {
    std::map<std::pair<Ipv4Address, VifIndex>, std::vector<Ipv4Address>>
        parents;
    for (const auto& [group, entry] : fib_) {
      if (entry.HasParent()) {
        parents[{entry.parent_address, entry.parent_vif}].push_back(group);
      }
    }
    for (const auto& [parent, groups] : parents) {
      const auto& [addr, vif] = parent;
      // Common-prefix mask over the covered groups.
      std::uint32_t mask = 0xFFFFFFFFu;
      Ipv4Address low = groups.front();
      for (const Ipv4Address g : groups) {
        if (g < low) low = g;
        const std::uint32_t diff = g.bits() ^ groups.front().bits();
        while ((diff & mask) != 0) mask <<= 1;
      }
      ControlPacket echo;
      echo.type = ControlType::kEchoRequest;
      echo.aggregate = true;
      echo.group = low;
      echo.group_mask = mask;
      ++stats_.echo_requests_sent;
      SendControl(vif, addr, addr, echo);
    }
  } else {
    for (const auto& [group, entry] : fib_) {
      if (entry.HasParent()) SendEchoRequest(entry, Ipv4Address{});
    }
  }

  // Parent-liveness: CBT-ECHO-TIMEOUT after the last reply means the
  // parent (or the path to it) failed (section 6.1).
  std::vector<std::pair<Ipv4Address, Ipv4Address>> lost;  // (group, parent)
  for (const auto& [group, entry] : fib_) {
    if (entry.HasParent() &&
        sim_->Now() - entry.last_parent_reply > config_.echo_timeout) {
      lost.push_back({group, entry.parent_address});
    }
  }
  for (const auto& [group, parent] : lost) {
    ++stats_.parent_losses;
    OBS_TRACE(sim_->trace(), .time = sim_->Now(),
              .kind = obs::TraceKind::kFsm, .name = "parent-lost",
              .node = self_.value(), .group = group,
              .arg_a = parent.bits());
    if (callbacks_.on_parent_lost) callbacks_.on_parent_lost(group);
    StartReconnect(group);
  }

  echo_timer_.Schedule(config_.echo_interval, [this] { OnEchoTick(); });
}

void CbtRouter::SendEchoRequest(const FibEntry& entry, Ipv4Address origin) {
  ControlPacket echo;
  echo.type = ControlType::kEchoRequest;
  echo.group = entry.group;
  echo.origin = origin;
  ++stats_.echo_requests_sent;
  SendControl(entry.parent_vif, entry.parent_address, entry.parent_address,
              echo);
}

void CbtRouter::HandleEchoRequest(VifIndex vif, const packet::Ipv4Header& ip,
                                  const ControlPacket& pkt) {
  ++stats_.echo_requests_received;
  // Refresh matching child entries. Reply only when we actually hold
  // parent state for the sender: a restarted / stateless router must stay
  // silent so the child's CBT-ECHO-TIMEOUT fires and it re-joins
  // (section 6.2 non-core restart depends on this).
  bool known_child = false;
  for (auto& [group, entry] : fib_) {
    if (!EchoCovers(pkt, group)) continue;
    if (ChildEntry* child = entry.FindChild(ip.src);
        child != nullptr && child->vif == vif) {
      child->last_heard = sim_->Now();
      known_child = true;
    }
  }
  if (!known_child) return;
  ControlPacket reply;
  reply.type = ControlType::kEchoReply;
  reply.aggregate = pkt.aggregate;
  reply.group = pkt.group;
  reply.group_mask = pkt.group_mask;
  ++stats_.echo_replies_sent;
  SendControl(vif, ip.src, ip.src, reply);
}

void CbtRouter::HandleEchoReply(VifIndex vif, const packet::Ipv4Header& ip,
                                const ControlPacket& pkt) {
  ++stats_.echo_replies_received;
  for (auto& [group, entry] : fib_) {
    if (!EchoCovers(pkt, group)) continue;
    if (entry.HasParent() && entry.parent_vif == vif &&
        entry.parent_address == ip.src) {
      entry.last_parent_reply = sim_->Now();
    }
  }
}

void CbtRouter::OnChildScan() {
  std::vector<Ipv4Address> affected;
  for (auto& [group, entry] : fib_) {
    const SimTime now = sim_->Now();
    const auto stale = [&](const ChildEntry& c) {
      return now - c.last_heard > config_.child_assert_expire;
    };
    const auto removed =
        std::count_if(entry.children.begin(), entry.children.end(), stale);
    if (removed > 0) {
      stats_.children_expired += static_cast<std::uint64_t>(removed);
      for (const ChildEntry& c : entry.children) {
        if (stale(c)) TraceChildRemoved(group, c.address, "expired");
      }
      entry.children.erase(
          std::remove_if(entry.children.begin(), entry.children.end(), stale),
          entry.children.end());
      entry.Touch();
      affected.push_back(group);
    }
  }
  for (const Ipv4Address& group : affected) QuitCheck(group);
  child_scan_timer_.Schedule(config_.child_assert_interval,
                             [this] { OnChildScan(); });
}

void CbtRouter::OnIffScan() {
  std::vector<Ipv4Address> groups;
  for (const auto& [group, entry] : fib_) groups.push_back(group);
  for (const Ipv4Address& group : groups) QuitCheck(group);
  iff_scan_timer_.Schedule(config_.iff_scan_interval, [this] { OnIffScan(); });
}

void CbtRouter::StartReconnect(Ipv4Address group) {
  FibEntry* entry = fib_.Find(group);
  if (!alive_ || entry == nullptr || pending_.contains(group)) return;

  entry->parent_address = Ipv4Address{};
  entry->parent_vif = kInvalidVif;
  entry->Touch();

  std::vector<Ipv4Address> cores = entry->cores;
  if (cores.empty()) cores = directory_->CoresFor(group);
  if (cores.empty()) {
    TearDown(group, "no-route");
    return;
  }
  // "arbitrarily choosing an alternate core from its list of cores" —
  // except under a k-core partition, where the member LANs' assigned core
  // makes the choice purposeful (StartJoin still cycles past it if it is
  // unreachable, section 6.1).
  std::size_t index = 0;
  const std::optional<std::size_t> assigned = AssignedCoreIndex(group);
  if (assigned.has_value() && *assigned < cores.size()) {
    index = *assigned;
  } else if (cores.size() > 1) {
    index = static_cast<std::size_t>(sim_->rng().NextBelow(cores.size()));
  }
  StartJoin(group, std::move(cores), index, /*reconnect=*/true);
}

// ---------------------------------------------------------------------------
// IGMP-driven behaviour (sections 2.3, 2.5, 2.7).
// ---------------------------------------------------------------------------

void CbtRouter::OnMemberReport(VifIndex vif, Ipv4Address group,
                               Ipv4Address /*reporter*/, bool /*newly*/) {
  if (!group.IsMulticast() || group.IsLinkLocalMulticast()) return;
  if (!igmp_.IsQuerier(vif)) return;  // only the D-DR originates joins
  if (IsOnTree(group) || IsPending(group)) return;
  if (const auto it = proxied_groups_.find(group);
      it != proxied_groups_.end()) {
    // A G-DR covered this LAN at it->second; confirm it still does by
    // re-joining once the marker goes stale (a fresh proxy-ack renews it,
    // a normal ack or a new G-DR repairs a silent G-DR loss).
    if (sim_->Now() - it->second < config_.proxy_refresh_interval) return;
    proxied_groups_.erase(it);
    ++dataplane_epoch_;
  }
  // Core information: from a previously heard RP/Core-Report, falling back
  // to the external directory ("or by some other means", section 2.5).
  std::vector<Ipv4Address> cores;
  std::size_t target_index = 0;
  if (const auto it = learned_cores_.find(group); it != learned_cores_.end()) {
    cores.assign(it->second.cores.begin(), it->second.cores.end());
    target_index = it->second.target_index;
  } else {
    cores = directory_->CoresFor(group);
    // Multi-core partition: this LAN's members join their assigned core's
    // subtree (the locality partition published alongside the core list).
    target_index = directory_->AssignedIndex(group, VifSubnet(vif));
  }
  if (cores.empty()) return;  // no <core,group> mapping yet
  StartJoin(group, std::move(cores), target_index, /*reconnect=*/false);
}

void CbtRouter::OnCoreReport(VifIndex vif, const IgmpMessage& msg) {
  if (msg.cores.empty()) return;
  // Every member's report repeats the same mapping; only a change needs
  // storing.
  LearnedCores& learned = learned_cores_[msg.group];
  if (learned.cores != msg.cores ||
      learned.target_index != msg.target_core_index) {
    learned.cores = msg.cores;
    learned.target_index = msg.target_core_index;
  }
  // The RP/Core-Report may arrive after the membership report (section
  // 2.5 tolerates either order); if membership is already known, join
  // now. Never join on the core report alone — "the receipt of an IGMP
  // group membership report ... triggers the tree joining process".
  // OnMemberReport ignores a group already on the tree or pending, so
  // test that before scanning every vif for members.
  if (!IsOnTree(msg.group) && !IsPending(msg.group) &&
      igmp_.AnyMembers(msg.group)) {
    OnMemberReport(vif, msg.group, Ipv4Address{}, false);
  }
}

void CbtRouter::OnGroupExpired(VifIndex /*vif*/, Ipv4Address group) {
  if (proxied_groups_.erase(group) > 0) ++dataplane_epoch_;
  QuitCheck(group);
}

// ---------------------------------------------------------------------------
// Data plane (sections 4, 5, 7).
// ---------------------------------------------------------------------------

void CbtRouter::HandleNativeData(VifIndex vif, const packet::Ipv4Header& ip,
                                 std::span<const std::uint8_t> datagram) {
  const Ipv4Address group = ip.dst;
  const bool local_origin = SubnetContains(vif, ip.src);
  FibEntry* entry = fib_.Find(group);

  if (entry == nullptr) {
    // Sections 5.1/5.3 non-member sending: the subnet's DR encapsulates
    // the packet and unicasts it toward a core for the group.
    if (local_origin && IsSubnetDr(group, vif) &&
        !proxied_groups_.contains(group)) {
      RelayNonMemberData(vif, ip, datagram);
    }
    return;
  }

  // Section 7: native data must arrive over a valid on-tree interface; the
  // only other acceptable source is a locally-originated packet on a LAN
  // we are DR for.
  const bool from_tree = entry->IsTreeVif(vif);
  const bool from_local_lan = local_origin && IsSubnetDr(group, vif);
  if (!from_tree && !from_local_lan) {
    // Either a non-local source forged onto a leaf LAN (the section 5
    // local-origin check) or an off-tree arrival (section 7).
    if (!local_origin) {
      ++stats_.data_dropped_not_local;
    } else {
      ++stats_.data_dropped_off_tree;
    }
    return;
  }

  if (config_.dataplane == DataplaneMode::kFast) {
    netsim::PacketRef staged;
    if (const netsim::PacketRef* out = DecrementTtlFast(ip, datagram, staged)) {
      ForwardAlongTree(vif, ip.src, *entry, ip, out->bytes(), nullptr, out);
    }
    return;
  }
  const auto forwarded = packet::WithDecrementedTtl(datagram);
  if (!forwarded) {
    ++stats_.data_dropped_ttl;
    return;
  }
  ForwardAlongTree(vif, ip.src, *entry, ip, *forwarded, nullptr);
}

void CbtRouter::HandleCbtData(VifIndex vif,
                              const packet::ParsedDatagram& parsed,
                              std::span<const std::uint8_t> datagram) {
  const packet::Ipv4Header& outer = parsed.ip;
  const auto data = packet::ExtractCbtModeData(parsed);
  if (!data) {
    ++stats_.malformed_control;
    return;
  }

  FibEntry* entry = fib_.Find(data->header.group);
  if (entry == nullptr) {
    if (!OwnsAddress(outer.dst)) {
      // Transit hop of a non-member sender's unicast toward the core.
      ++stats_.data_nonmember_relayed;
      ForwardUnicast(outer, datagram);
    } else {
      ++stats_.data_dropped_no_state;
    }
    return;
  }

  // Section 7: an on-tree packet arriving over an off-tree interface has
  // wandered; discard. Off-tree (0x00) arrivals are legitimate non-member
  // data reaching the tree.
  if (data->header.on_tree && !entry->IsTreeVif(vif)) {
    ++stats_.data_dropped_off_tree;
    return;
  }

  packet::CbtDataHeader hdr = data->header;
  hdr.on_tree = true;  // first on-tree router flips 0x00 -> 0xff
  if (hdr.ip_ttl <= 1) {
    ++stats_.data_dropped_ttl;
    return;
  }
  hdr.ip_ttl = static_cast<std::uint8_t>(hdr.ip_ttl - 1);

  ForwardAlongTree(vif, outer.src, *entry, data->inner, data->original_datagram,
                   &hdr);
}

void CbtRouter::ForwardAlongTree(VifIndex arrival_vif, Ipv4Address arrival_src,
                                 const FibEntry& entry,
                                 const packet::Ipv4Header& inner_ip,
                                 std::span<const std::uint8_t> inner_datagram,
                                 const packet::CbtDataHeader* cbt,
                                 const netsim::PacketRef* prebuilt) {
  // Effective CBT header for any encapsulated output (and the TTL source
  // for native outputs of a packet that arrived encapsulated).
  packet::CbtDataHeader hdr;
  if (cbt != nullptr) {
    hdr = *cbt;
  } else {
    // First-hop state for a packet sourced on a local LAN; the caller
    // already decremented the inner datagram's TTL.
    hdr.group = entry.group;
    hdr.core = entry.cores.empty() ? Ipv4Address{} : entry.cores.front();
    hdr.origin = inner_ip.src;
    hdr.ip_ttl = inner_ip.ttl;
    hdr.on_tree = true;
  }

  if (config_.dataplane == DataplaneMode::kSlow) {
    ForwardAlongTreeSlow(arrival_vif, arrival_src, entry, inner_ip,
                         inner_datagram, cbt, hdr);
    return;
  }

  const FlowKey key{entry.group, arrival_vif, arrival_src, cbt != nullptr};
  FlowSlot& slot = flow_cache_.SlotFor(key);
  const std::uint64_t epoch = DataplaneEpoch();
  if (!slot.valid || !(slot.key == key)) {
    ++stats_.dataplane_cache_misses;
    slot.key = key;
    slot.decision = BuildFlowDecision(entry, key);
    slot.table_generation = fib_.table_generation();
    slot.entry_generation = entry.generation;
    slot.epoch = epoch;
    slot.valid = true;
    stats_.dataplane_cache_occupancy = flow_cache_.Occupancy();
  } else if (slot.table_generation != fib_.table_generation() ||
             slot.entry_generation != entry.generation ||
             slot.epoch != epoch) {
    ++stats_.dataplane_cache_invalidates;
    slot.decision = BuildFlowDecision(entry, key);
    slot.table_generation = fib_.table_generation();
    slot.entry_generation = entry.generation;
    slot.epoch = epoch;
  } else {
    ++stats_.dataplane_cache_hits;
  }
  ExecuteFlowDecision(slot.decision, entry, inner_ip, inner_datagram, cbt,
                      hdr, prebuilt);
}

FlowDecision CbtRouter::BuildFlowDecision(const FibEntry& entry,
                                          const FlowKey& key) const {
  // Collect outputs per interface mode (section 5.2 mixed operation):
  // native interfaces get one IP multicast each — shared by parent,
  // children and members on that LAN (section 4); CBT interfaces get
  // per-neighbour encapsulated unicasts, or a single CBT multicast when
  // several children sit behind one interface (section 5). Nothing here
  // depends on the packet beyond the key, so the result can be cached.
  FlowDecision d;
  const auto add_native = [&](VifIndex v) {
    if (v != key.arrival_vif &&
        std::find(d.native_vifs.begin(), d.native_vifs.end(), v) ==
            d.native_vifs.end()) {
      d.native_vifs.push_back(v);
    }
  };
  if (entry.HasParent() && !(entry.parent_vif == key.arrival_vif &&
                             entry.parent_address == key.arrival_src)) {
    if (EffectiveMode(entry.parent_vif) == VifMode::kNative) {
      add_native(entry.parent_vif);
    } else {
      d.cbt_targets.push_back({entry.parent_vif,
                               VifAddress(entry.parent_vif),
                               entry.parent_address});
    }
  }
  entry.ForEachChildVif([&](VifIndex v) {
    if (EffectiveMode(v) == VifMode::kNative) {
      add_native(v);
      return;
    }
    // Skip the neighbour the packet came from, remember a sole survivor
    // for a unicast, fall back to the group address when several remain.
    std::size_t kid_count = 0;
    Ipv4Address sole_kid;
    entry.ForEachChildOnVif(v, [&](const ChildEntry& c) {
      if (v == key.arrival_vif && c.address == key.arrival_src) return;
      sole_kid = c.address;
      ++kid_count;
    });
    if (kid_count == 0) return;
    d.cbt_targets.push_back(
        {v, VifAddress(v), kid_count == 1 ? sole_kid : entry.group});
  });
  for (const VifIndex v : igmp_.MemberVifs(entry.group)) {
    if (!IsSubnetDr(entry.group, v)) continue;
    if (!key.cbt_arrival && v == key.arrival_vif) continue;  // on wire
    if (std::find(d.native_vifs.begin(), d.native_vifs.end(), v) !=
        d.native_vifs.end()) {
      continue;  // a native tree transmission covers this LAN
    }
    d.member_vifs.push_back(v);
  }
  return d;
}

void CbtRouter::ExecuteFlowDecision(const FlowDecision& decision,
                                    const FibEntry& entry,
                                    const packet::Ipv4Header& inner_ip,
                                    std::span<const std::uint8_t> inner_datagram,
                                    const packet::CbtDataHeader* cbt,
                                    const packet::CbtDataHeader& hdr,
                                    const netsim::PacketRef* prebuilt) {
  // Native tree outputs: every vif carries the same bytes, so serialize
  // once into the arena and fan the shared buffer out.
  netsim::PacketRef native_ref;
  std::size_t native_size = 0;
  if (!decision.native_vifs.empty()) {
    native_size = inner_datagram.size();
    if (cbt != nullptr) {
      native_ref = MakeTtlPatchedPacket(inner_datagram, hdr.ip_ttl);
    } else if (prebuilt != nullptr) {
      native_ref = *prebuilt;
    } else {
      native_ref = sim_->MakePacket(inner_datagram);
    }
    for (const VifIndex v : decision.native_vifs) {
      stats_.data_bytes_sent += native_size;
      ++stats_.data_forwarded_tree;
      sim_->SendDatagramRef(self_, v, entry.group, native_ref);
    }
  }

  // CBT-mode outputs: the outer header template (and its invariant inner
  // payload) is encoded once; each target patches 8 address bytes and
  // re-checksums the outer header.
  if (!decision.cbt_targets.empty()) {
    if (cbt == nullptr) ++stats_.data_encapsulated;
    const packet::CbtModeEncoder encoder(hdr, inner_datagram);
    for (const FlowCbtTarget& target : decision.cbt_targets) {
      auto bytes = encoder.Build(target.src, target.dst);
      stats_.data_bytes_sent += bytes.size();
      ++stats_.data_forwarded_tree;
      sim_->SendDatagram(self_, target.vif, target.dst, std::move(bytes));
    }
  }

  // Member LANs share one buffer — the native one when the bytes are
  // identical (native arrival in a native domain: both are the already-
  // decremented datagram verbatim). The origin-LAN skip depends on the
  // packet's source address and stays per-packet.
  const bool force_ttl_one = cbt != nullptr || !config_.native_mode;
  netsim::PacketRef member_ref;
  std::size_t member_size = 0;
  for (const VifIndex v : decision.member_vifs) {
    if (SubnetContains(v, inner_ip.src)) continue;  // origin LAN saw it
    if (!member_ref.valid()) {
      member_size = inner_datagram.size();
      if (!force_ttl_one && native_ref.valid()) {
        member_ref = native_ref;
      } else if (force_ttl_one) {
        member_ref = MakeTtlPatchedPacket(inner_datagram, 1);
      } else if (prebuilt != nullptr) {
        member_ref = *prebuilt;
      } else {
        member_ref = sim_->MakePacket(inner_datagram);
      }
    }
    stats_.data_bytes_sent += member_size;
    ++stats_.data_delivered_lan;
    if (cbt != nullptr) ++stats_.data_decapsulated;
    sim_->SendDatagramRef(self_, v, entry.group, member_ref);
  }
}

netsim::PacketRef CbtRouter::MakeTtlPatchedPacket(
    std::span<const std::uint8_t> datagram, std::uint8_t ttl) {
  // Same bytes packet::WithTtl would produce, without the vector detour:
  // one arena copy, then the header patched in place.
  netsim::PacketRef ref = sim_->MakePacket(datagram);
  packet::RewriteTtl(sim_->MutablePacket(ref), ttl);
  return ref;
}

const netsim::PacketRef* CbtRouter::DecrementTtlFast(
    const packet::Ipv4Header& ip, std::span<const std::uint8_t> datagram,
    netsim::PacketRef& staged) {
  if (ip.ttl <= 1) {
    ++stats_.data_dropped_ttl;
    return nullptr;
  }
  const auto ttl = static_cast<std::uint8_t>(ip.ttl - 1);
  // Zero-copy transit: when the delivery closure is the arriving buffer's
  // sole owner (always true on point-to-point hops), patch the TTL in
  // place and send on the very buffer that carried the packet in.
  // Otherwise fall back to the one-copy hop decrement — one arena staging
  // instead of WithDecrementedTtl's vector round trip that the arena
  // would copy again.
  if (const netsim::PacketRef* arrival =
          sim_->PatchableDeliveryRef(datagram)) {
    packet::RewriteTtl(sim_->MutablePacket(*arrival), ttl);
    return arrival;
  }
  staged = MakeTtlPatchedPacket(datagram, ttl);
  return &staged;
}

bool CbtRouter::FlowCacheCoherent() const {
  bool coherent = true;
  const std::uint64_t epoch = DataplaneEpoch();
  flow_cache_.ForEachValidSlot([&](const FlowSlot& slot) {
    const FibEntry* entry = fib_.Find(slot.key.group);
    if (entry == nullptr) return;  // lookup precedes any hit; can't serve
    if (slot.table_generation != fib_.table_generation() ||
        slot.entry_generation != entry->generation || slot.epoch != epoch) {
      return;  // would be re-resolved, not served
    }
    if (!(BuildFlowDecision(*entry, slot.key) == slot.decision)) {
      coherent = false;
    }
  });
  return coherent;
}

void CbtRouter::ForwardAlongTreeSlow(
    VifIndex arrival_vif, Ipv4Address arrival_src, const FibEntry& entry,
    const packet::Ipv4Header& inner_ip,
    std::span<const std::uint8_t> inner_datagram,
    const packet::CbtDataHeader* cbt, const packet::CbtDataHeader& hdr) {
  // The fast path's decision, recomputed for every packet (no cache), with
  // one freshly built copy of the bytes per output (no shared staging).
  const FlowDecision decision = BuildFlowDecision(
      entry, FlowKey{entry.group, arrival_vif, arrival_src, cbt != nullptr});

  for (const VifIndex v : decision.native_vifs) {
    std::vector<std::uint8_t> bytes =
        cbt != nullptr
            ? packet::WithTtl(inner_datagram, hdr.ip_ttl)
            : std::vector<std::uint8_t>(inner_datagram.begin(),
                                        inner_datagram.end());
    stats_.data_bytes_sent += bytes.size();
    ++stats_.data_forwarded_tree;
    sim_->SendDatagram(self_, v, entry.group, std::move(bytes));
  }
  if (!decision.cbt_targets.empty() && cbt == nullptr) {
    ++stats_.data_encapsulated;
  }
  for (const FlowCbtTarget& target : decision.cbt_targets) {
    auto bytes = packet::BuildCbtModeDatagram(target.src, target.dst, hdr,
                                              inner_datagram);
    stats_.data_bytes_sent += bytes.size();
    ++stats_.data_forwarded_tree;
    sim_->SendDatagram(self_, target.vif, target.dst, std::move(bytes));
  }

  // Member LANs: always native IP multicast. In CBT-mode operation the
  // inner TTL "is set to one before forwarding" (section 5); in a native
  // domain the already-decremented datagram goes out as-is.
  const bool force_ttl_one = cbt != nullptr || !config_.native_mode;
  for (const VifIndex v : decision.member_vifs) {
    if (SubnetContains(v, inner_ip.src)) continue;  // origin LAN saw it
    std::vector<std::uint8_t> bytes =
        force_ttl_one ? packet::WithTtl(inner_datagram, 1)
                      : std::vector<std::uint8_t>(inner_datagram.begin(),
                                                  inner_datagram.end());
    stats_.data_bytes_sent += bytes.size();
    ++stats_.data_delivered_lan;
    if (cbt != nullptr) ++stats_.data_decapsulated;
    sim_->SendDatagram(self_, v, entry.group, std::move(bytes));
  }
}

void CbtRouter::RelayNonMemberData(VifIndex /*vif*/,
                                   const packet::Ipv4Header& ip,
                                   std::span<const std::uint8_t> datagram) {
  const std::vector<Ipv4Address> cores = directory_->CoresFor(ip.dst);
  if (cores.empty()) {
    ++stats_.data_dropped_no_state;
    return;
  }
  // Section 5.1 sends toward "the" core; with a k-core partition any
  // listed core reaches the whole forest (the backbone bridges them), so
  // inject at the nearest one — that is the traffic-concentration win of
  // multi-core placement. Single-core (or partition-less) groups keep the
  // historical primary-core target.
  Ipv4Address target = cores.front();
  if (cores.size() > 1 && directory_->HasAssignments(ip.dst)) {
    double best = std::numeric_limits<double>::infinity();
    for (const Ipv4Address& c : cores) {
      const auto r = routes_->NextHopToward(self_, c);
      if (r && r->vif != kInvalidVif && r->cost < best) {
        best = r->cost;
        target = c;
      }
    }
  }
  const auto route = ResolveToward(target);
  if (!route || route->vif == kInvalidVif) {
    ++stats_.data_dropped_no_state;
    return;
  }
  packet::CbtDataHeader hdr;
  hdr.group = ip.dst;
  hdr.core = target;
  hdr.origin = ip.src;
  hdr.ip_ttl = ip.ttl;
  hdr.on_tree = false;  // flips to 0xff at the first on-tree router
  auto bytes = packet::BuildCbtModeDatagram(VifAddress(route->vif), target,
                                            hdr, datagram);
  stats_.data_bytes_sent += bytes.size();
  ++stats_.data_encapsulated;
  ++stats_.data_nonmember_relayed;
  sim_->SendDatagram(self_, route->vif, route->next_hop, std::move(bytes));
}

void CbtRouter::ForwardUnicast(const packet::Ipv4Header& ip,
                               std::span<const std::uint8_t> datagram) {
  const auto route = routes_->NextHopToward(self_, ip.dst);
  if (!route || route->vif == kInvalidVif) return;
  const Ipv4Address link_dst = route->direct ? ip.dst : route->next_hop;
  if (config_.dataplane == DataplaneMode::kFast) {
    // Relay transit hops are on the data path too: same zero-copy (or
    // at worst one-copy) TTL decrement as HandleNativeData.
    netsim::PacketRef staged;
    if (const netsim::PacketRef* out = DecrementTtlFast(ip, datagram, staged)) {
      sim_->SendDatagramRef(self_, route->vif, link_dst, *out);
    }
    return;
  }
  const auto forwarded = packet::WithDecrementedTtl(datagram);
  if (!forwarded) {
    ++stats_.data_dropped_ttl;
    return;
  }
  sim_->SendDatagram(self_, route->vif, link_dst, *forwarded);
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

void CbtRouter::SendControl(VifIndex vif, Ipv4Address link_dst,
                            Ipv4Address ip_dst, const ControlPacket& pkt) {
  const packet::Datagram bytes =
      packet::BuildControlDatagram(VifAddress(vif), ip_dst, pkt);
  stats_.control_bytes_sent += bytes.size();
  sim_->SendDatagram(self_, vif, link_dst, bytes);
}

void CbtRouter::EndSpan(const char* name, Ipv4Address group,
                        std::uint64_t txn, const char* outcome) {
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .phase = obs::TracePhase::kEnd, .name = name,
            .node = self_.value(), .group = group, .txn = txn,
            .detail = outcome);
}

void CbtRouter::TraceChildRemoved(Ipv4Address group, Ipv4Address child,
                                  const char* reason) {
  OBS_TRACE(sim_->trace(), .time = sim_->Now(), .kind = obs::TraceKind::kFsm,
            .name = "child-removed", .node = self_.value(), .group = group,
            .arg_a = child.bits(), .detail = reason);
}

void CbtRouter::SendIgmp(VifIndex vif, Ipv4Address dst,
                         const IgmpMessage& msg) {
  sim_->SendDatagram(self_, vif, dst,
                     packet::BuildIgmpDatagram(VifAddress(vif), dst, msg));
}

bool CbtRouter::IsGdr(Ipv4Address group, VifIndex vif) const {
  return gdr_.contains({group, VifSubnet(vif)});
}

bool CbtRouter::IsSubnetDr(Ipv4Address group, VifIndex vif) const {
  if (IsGdr(group, vif)) return true;
  if (proxied_groups_.contains(group)) return false;  // a G-DR covers us
  return igmp_.IsQuerier(vif);
}

bool CbtRouter::OwnsAddress(Ipv4Address addr) const {
  for (const netsim::Interface& iface : sim_->node(self_).interfaces) {
    if (iface.address == addr) return true;
  }
  return false;
}

Ipv4Address CbtRouter::OwnedCore(std::span<const Ipv4Address> cores) const {
  for (const Ipv4Address& c : cores) {
    if (OwnsAddress(c)) return c;
  }
  return Ipv4Address{};
}

Ipv4Address CbtRouter::VifAddress(VifIndex vif) const {
  return sim_->interface(self_, vif).address;
}

SubnetId CbtRouter::VifSubnet(VifIndex vif) const {
  return sim_->interface(self_, vif).subnet;
}

bool CbtRouter::SubnetContains(VifIndex vif, Ipv4Address addr) const {
  return sim_->subnet(VifSubnet(vif)).address.Contains(addr);
}

}  // namespace cbt::core
