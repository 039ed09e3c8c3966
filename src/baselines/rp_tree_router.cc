#include "baselines/rp_tree_router.h"

#include <algorithm>

#include "common/checksum.h"

namespace cbt::baselines {

using packet::IpProtocol;

namespace {
constexpr std::size_t kMsgSize = 12;
}

std::vector<std::uint8_t> RpTreeMessage::Encode() const {
  BufferWriter out(kMsgSize);
  out.WriteU8(static_cast<std::uint8_t>(type));
  out.WriteU8(0);
  const std::size_t checksum_offset = out.size();
  out.WriteU16(0);
  out.WriteAddress(group);
  out.WriteAddress(rp);
  out.PatchU16(checksum_offset, InternetChecksum(out.View()));
  return std::move(out).Take();
}

std::optional<RpTreeMessage> RpTreeMessage::Decode(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kMsgSize) return std::nullopt;
  if (!VerifyInternetChecksum(bytes.subspan(0, kMsgSize))) return std::nullopt;
  BufferReader in(bytes);
  const std::uint8_t raw = in.ReadU8();
  if (raw != 1 && raw != 2) return std::nullopt;
  RpTreeMessage msg;
  msg.type = static_cast<Type>(raw);
  in.ReadU8();
  in.ReadU16();
  msg.group = in.ReadAddress();
  msg.rp = in.ReadAddress();
  if (!msg.group.IsMulticast()) return std::nullopt;
  return msg;
}

RpTreeRouter::RpTreeRouter(netsim::Simulator& sim, NodeId self,
                           routing::RouteManager& routes, RpResolver rp_of,
                           RpTreeConfig config, igmp::IgmpConfig igmp_config)
    : sim_(&sim),
      self_(self),
      routes_(&routes),
      rp_of_(std::move(rp_of)),
      config_(config),
      igmp_(sim, self, igmp_config,
            igmp::RouterIgmp::Callbacks{
                [this](VifIndex, Ipv4Address group, Ipv4Address, bool newly) {
                  if (newly) OnMembershipChange(group);
                },
                nullptr,
                [this](VifIndex, Ipv4Address group) {
                  OnMembershipChange(group);
                },
                [this](VifIndex vif, Ipv4Address dst,
                       const packet::IgmpMessage& msg) {
                  sim_->SendDatagram(
                      self_, vif, dst,
                      packet::BuildIgmpDatagram(
                          sim_->interface(self_, vif).address, dst, msg));
                }}) {}

void RpTreeRouter::Start() { igmp_.Start(); }

void RpTreeRouter::OnDatagram(VifIndex vif, Ipv4Address /*link_src*/,
                              Ipv4Address /*link_dst*/,
                              std::span<const std::uint8_t> datagram) {
  const auto parsed = packet::ParseDatagram(datagram);
  if (!parsed) return;
  const packet::Ipv4Header& ip = parsed->ip;
  switch (ip.protocol) {
    case IpProtocol::kIgmp:
      if (const auto msg = packet::ExtractIgmp(*parsed)) {
        igmp_.OnMessage(vif, ip.src, *msg);
      }
      return;
    case IpProtocol::kUdp: {
      BufferReader in(parsed->payload);
      const auto udp = packet::UdpHeader::Decode(in);
      if (!udp || udp->dst_port != kRpTreePort) return;
      if (const auto msg = RpTreeMessage::Decode(
              parsed->payload.subspan(packet::kUdpHeaderSize))) {
        HandleControl(vif, ip, *msg);
      }
      return;
    }
    case IpProtocol::kCbt:
      // Register traffic (sender DR -> RP), reusing the encapsulation
      // header as PIM reuses IP-in-IP.
      HandleRegister(vif, *parsed, datagram);
      return;
    default:
      if (ip.dst.IsMulticast() && !ip.dst.IsLinkLocalMulticast()) {
        HandleData(vif, ip, datagram);
      }
      return;
  }
}

void RpTreeRouter::OnMembershipChange(Ipv4Address group) {
  if (igmp_.AnyMembers(group)) {
    EnsureJoined(group);
  } else {
    MaybePrune(group);
  }
}

RpTreeRouter::Entry& RpTreeRouter::EnsureJoined(Ipv4Address group) {
  auto& slot = entries_[group];
  if (slot == nullptr) {
    slot = std::make_unique<Entry>();
    const auto rp = rp_of_(group);
    if (rp && routes_->IsDirectlyAttached(self_, *rp)) {
      // Crude but sufficient RP self-identification: the RP's address is
      // one of ours (the harness assigns router primary addresses).
      for (const auto& iface : sim_->node(self_).interfaces) {
        if (iface.address == *rp) slot->am_rp = true;
      }
    }
    slot->refresh_timer.BindTo(*sim_);
    if (!slot->am_rp) SendJoinUpstream(group, *slot);
  }
  return *slot;
}

void RpTreeRouter::SendJoinUpstream(Ipv4Address group, Entry& entry) {
  const auto rp = rp_of_(group);
  if (!rp) return;
  const auto route = routes_->Lookup(self_, *rp);
  if (route && route->vif != kInvalidVif) {
    entry.upstream_vif = route->vif;
    entry.upstream_neighbor = route->next_hop;
    RpTreeMessage join;
    join.type = RpTreeMessage::Type::kJoin;
    join.group = group;
    join.rp = *rp;
    ++stats_.joins_sent;
    entry.joined_upstream = true;
    SendMessage(route->vif, route->next_hop, join);
  }
  entry.refresh_timer.Schedule(config_.join_refresh_interval,
                               [this, group] {
                                 const auto it = entries_.find(group);
                                 if (it != entries_.end()) {
                                   SendJoinUpstream(group, *it->second);
                                 }
                               });
}

void RpTreeRouter::HandleControl(VifIndex vif, const packet::Ipv4Header& ip,
                                 const RpTreeMessage& msg) {
  if (msg.type == RpTreeMessage::Type::kJoin) {
    ++stats_.joins_received;
    Entry& entry = EnsureJoined(msg.group);
    // Add/refresh the downstream neighbour with its holdtime.
    Downstream* found = nullptr;
    for (auto& d : entry.downstream) {
      if (d->neighbor == ip.src && d->vif == vif) found = d.get();
    }
    if (found == nullptr) {
      auto d = std::make_unique<Downstream>();
      d->neighbor = ip.src;
      d->vif = vif;
      d->holdtimer.BindTo(*sim_);
      found = d.get();
      entry.downstream.push_back(std::move(d));
    }
    const Ipv4Address neighbor = ip.src;
    const Ipv4Address group = msg.group;
    found->holdtimer.Schedule(config_.join_holdtime, [this, group, neighbor,
                                                      vif] {
      const auto it = entries_.find(group);
      if (it == entries_.end()) return;
      auto& downstream = it->second->downstream;
      downstream.erase(
          std::remove_if(downstream.begin(), downstream.end(),
                         [&](const std::unique_ptr<Downstream>& d) {
                           return d->neighbor == neighbor && d->vif == vif;
                         }),
          downstream.end());
      MaybePrune(group);
    });
    return;
  }

  // Prune.
  ++stats_.prunes_received;
  const auto it = entries_.find(msg.group);
  if (it == entries_.end()) return;
  auto& downstream = it->second->downstream;
  downstream.erase(std::remove_if(downstream.begin(), downstream.end(),
                                  [&](const std::unique_ptr<Downstream>& d) {
                                    return d->neighbor == ip.src &&
                                           d->vif == vif;
                                  }),
                   downstream.end());
  MaybePrune(msg.group);
}

void RpTreeRouter::MaybePrune(Ipv4Address group) {
  const auto it = entries_.find(group);
  if (it == entries_.end()) return;
  Entry& entry = *it->second;
  if (entry.am_rp) return;
  if (!entry.downstream.empty() || igmp_.AnyMembers(group)) return;
  if (entry.joined_upstream && entry.upstream_vif != kInvalidVif) {
    RpTreeMessage prune;
    prune.type = RpTreeMessage::Type::kPrune;
    prune.group = group;
    prune.rp = rp_of_(group).value_or(Ipv4Address{});
    ++stats_.prunes_sent;
    SendMessage(entry.upstream_vif, entry.upstream_neighbor, prune);
  }
  entries_.erase(it);
}

void RpTreeRouter::HandleData(VifIndex vif, const packet::Ipv4Header& ip,
                              std::span<const std::uint8_t> datagram) {
  const Ipv4Address group = ip.dst;
  const bool local_origin =
      sim_->subnet(sim_->interface(self_, vif).subnet)
          .address.Contains(ip.src) &&
      igmp_.IsQuerier(vif);

  const auto it = entries_.find(group);
  Entry* entry = it == entries_.end() ? nullptr : it->second.get();

  if (local_origin) {
    // Sender-side DR: register-encapsulate to the RP (unless we ARE the
    // RP, in which case the packet enters the tree right here).
    if (entry != nullptr && entry->am_rp) {
      const auto fwd = packet::WithDecrementedTtl(datagram);
      if (fwd) ForwardDown(*entry, vif, ip, *fwd, group);
      return;
    }
    const auto rp = rp_of_(group);
    if (!rp) return;
    const auto route = routes_->Lookup(self_, *rp);
    if (!route || route->vif == kInvalidVif) return;
    packet::CbtDataHeader hdr;  // generic encapsulation header
    hdr.group = group;
    hdr.core = *rp;
    hdr.origin = ip.src;
    hdr.ip_ttl = ip.ttl;
    hdr.on_tree = false;
    auto bytes =
        packet::BuildCbtModeDatagram(sim_->interface(self_, route->vif).address,
                                     *rp, hdr, datagram);
    ++stats_.registers_sent;
    sim_->SendDatagram(self_, route->vif, route->next_hop, std::move(bytes));
    return;
  }

  // Tree traffic: strictly downward — accept only from the RPF (upstream)
  // interface.
  if (entry == nullptr || vif != entry->upstream_vif) {
    ++stats_.data_dropped_off_tree;
    return;
  }
  const auto fwd = packet::WithDecrementedTtl(datagram);
  if (!fwd) return;
  ForwardDown(*entry, vif, ip, *fwd, group);
}

void RpTreeRouter::HandleRegister(VifIndex /*vif*/,
                                  const packet::ParsedDatagram& outer,
                                  std::span<const std::uint8_t> datagram) {
  // Relay toward the RP if it is not us.
  bool mine = false;
  for (const auto& iface : sim_->node(self_).interfaces) {
    if (iface.address == outer.ip.dst) mine = true;
  }
  if (!mine) {
    const auto route = routes_->Lookup(self_, outer.ip.dst);
    if (route && route->vif != kInvalidVif) {
      const auto fwd = packet::WithDecrementedTtl(datagram);
      if (fwd) {
        ++stats_.registers_relayed;
        sim_->SendDatagram(self_, route->vif, route->next_hop, *fwd);
      }
    }
    return;
  }
  // We are the RP: decapsulate and flood the tree downward.
  const auto data = packet::ExtractCbtModeData(outer);
  if (!data) return;
  Entry& entry = EnsureJoined(data->header.group);
  // Registers are unicast tunnels: the decapsulated packet flows down
  // EVERY tree interface, including the one the register arrived on —
  // that up-then-down double traversal is the unidirectional tree's
  // defining cost.
  ForwardDown(entry, kInvalidVif, data->inner, data->original_datagram,
              data->header.group);
}

void RpTreeRouter::ForwardDown(const Entry& entry, VifIndex arrival_vif,
                               const packet::Ipv4Header& inner_ip,
                               std::span<const std::uint8_t> inner,
                               Ipv4Address group) {
  // Every output carries the same bytes: one arena buffer, shared.
  netsim::PacketRef shared;
  const auto shared_ref = [&]() -> const netsim::PacketRef& {
    if (!shared.valid()) shared = sim_->MakePacket(inner);
    return shared;
  };
  std::vector<VifIndex> sent;
  for (const auto& d : entry.downstream) {
    if (d->vif == arrival_vif) continue;
    if (std::find(sent.begin(), sent.end(), d->vif) != sent.end()) continue;
    sent.push_back(d->vif);
    ++stats_.data_forwarded;
    sim_->SendDatagramRef(self_, d->vif, group, shared_ref());
  }
  for (const VifIndex v : igmp_.MemberVifs(group)) {
    if (v == arrival_vif || !igmp_.IsQuerier(v)) continue;
    if (std::find(sent.begin(), sent.end(), v) != sent.end()) continue;
    if (sim_->subnet(sim_->interface(self_, v).subnet)
            .address.Contains(inner_ip.src)) {
      continue;
    }
    ++stats_.data_delivered_lan;
    sim_->SendDatagramRef(self_, v, group, shared_ref());
  }
}

void RpTreeRouter::SendMessage(VifIndex vif, Ipv4Address dst,
                               const RpTreeMessage& msg) {
  const auto body = msg.Encode();
  BufferWriter out(packet::kIpv4HeaderSize + packet::kUdpHeaderSize +
                   body.size());
  packet::Ipv4Header ip;
  ip.src = sim_->interface(self_, vif).address;
  ip.dst = dst;
  ip.ttl = 1;
  ip.protocol = IpProtocol::kUdp;
  ip.Encode(out, packet::kUdpHeaderSize + body.size());
  packet::UdpHeader udp{kRpTreePort, kRpTreePort};
  udp.Encode(out, body.size());
  out.WriteBytes(body);
  auto bytes = std::move(out).Take();
  stats_.control_bytes_sent += bytes.size();
  sim_->SendDatagram(self_, vif, dst, std::move(bytes));
}

std::size_t RpTreeRouter::StateUnits() const {
  std::size_t units = 0;
  for (const auto& [group, entry] : entries_) {
    units += 1 + entry->downstream.size();
  }
  return units;
}

}  // namespace cbt::baselines
