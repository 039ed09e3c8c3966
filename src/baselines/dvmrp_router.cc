#include "baselines/dvmrp_router.h"

#include <algorithm>


namespace cbt::baselines {

using packet::IpProtocol;

DvmrpRouter::DvmrpRouter(netsim::Simulator& sim, NodeId self,
                         routing::RouteManager& routes, DvmrpConfig config,
                         igmp::IgmpConfig igmp_config)
    : sim_(&sim),
      self_(self),
      routes_(&routes),
      config_(config),
      igmp_(sim, self, igmp_config,
            igmp::RouterIgmp::Callbacks{
                [this](VifIndex, Ipv4Address group, Ipv4Address, bool newly) {
                  if (newly) OnMemberAppeared(group);
                },
                nullptr,  // core reports are CBT business
                nullptr,  // expiry: pruning is data-driven on next packet
                [this](VifIndex vif, Ipv4Address dst,
                       const packet::IgmpMessage& msg) {
                  sim_->SendDatagram(
                      self_, vif, dst,
                      packet::BuildIgmpDatagram(
                          sim_->interface(self_, vif).address, dst, msg));
                }}) {}

void DvmrpRouter::Start() { igmp_.Start(); }

void DvmrpRouter::OnDatagram(VifIndex vif, Ipv4Address link_src,
                             Ipv4Address /*link_dst*/,
                             std::span<const std::uint8_t> datagram) {
  const auto parsed = packet::ParseDatagram(datagram);
  if (!parsed) return;
  const packet::Ipv4Header& ip = parsed->ip;

  switch (ip.protocol) {
    case IpProtocol::kIgmp: {
      if (const auto msg = packet::ExtractIgmp(*parsed)) {
        igmp_.OnMessage(vif, ip.src, *msg);
      }
      return;
    }
    case IpProtocol::kUdp: {
      BufferReader in(parsed->payload);
      const auto udp = packet::UdpHeader::Decode(in);
      if (!udp || udp->dst_port != kDvmrpPort) return;
      if (const auto msg = DvmrpMessage::Decode(
              parsed->payload.subspan(packet::kUdpHeaderSize))) {
        HandleControl(vif, ip, *msg);
      }
      return;
    }
    default:
      if (ip.dst.IsMulticast() && !ip.dst.IsLinkLocalMulticast()) {
        HandleData(vif, link_src, ip, datagram);
      }
      return;
  }
}

std::vector<VifIndex> DvmrpRouter::RouterVifs() const {
  std::vector<VifIndex> out;
  for (const auto& iface : sim_->node(self_).interfaces) {
    if (!iface.up) continue;
    if (NeighborRouterCount(iface.vif) > 0) out.push_back(iface.vif);
  }
  return out;
}

std::size_t DvmrpRouter::NeighborRouterCount(VifIndex vif) const {
  const auto& iface = sim_->interface(self_, vif);
  std::size_t n = 0;
  for (const auto& [peer, pv] : sim_->subnet(iface.subnet).attachments) {
    if (peer != self_ && sim_->node(peer).is_router && sim_->node(peer).up) {
      ++n;
    }
  }
  return n;
}

void DvmrpRouter::HandleData(VifIndex vif, Ipv4Address link_src,
                             const packet::Ipv4Header& ip,
                             std::span<const std::uint8_t> datagram) {
  const SourceGroup sg{ip.src, ip.dst};

  // RPF check: the packet must arrive on the interface we would use to
  // reach its source (or be locally originated on that interface's LAN).
  const auto& arrival = sim_->interface(self_, vif);
  const bool local_origin =
      sim_->subnet(arrival.subnet).address.Contains(ip.src);
  VifIndex rpf_vif = vif;
  Ipv4Address rpf_neighbor;
  if (!local_origin) {
    const auto route = routes_->Lookup(self_, ip.src);
    if (!route || route->vif != vif) {
      ++stats_.data_dropped_rpf;
      // RFC 1075-style leaf detection on non-RPF arrivals: tell the
      // link-layer sender (a neighbour router) to stop sending this
      // (S,G) our way. This is what lets prunes converge on cyclic
      // topologies without poison-reverse route exchange.
      const auto sender = sim_->FindNodeByAddress(link_src);
      if (sender && sim_->node(*sender).is_router) {
        DvmrpMessage prune;
        prune.type = DvmrpType::kPrune;
        prune.group = sg.second;
        prune.source = sg.first;
        prune.lifetime_s =
            static_cast<std::uint32_t>(config_.prune_lifetime / kSecond);
        ++stats_.prunes_sent;
        SendMessage(vif, link_src, prune);
      }
      return;
    }
    rpf_vif = route->vif;
    rpf_neighbor = route->next_hop;
  } else if (!igmp_.IsQuerier(vif)) {
    // One forwarder per LAN: the querier floods packets off their
    // origin subnet (stands in for DVMRP's designated-forwarder rule).
    ++stats_.data_dropped_rpf;
    return;
  }

  auto& entry = entries_[sg];
  if (entry == nullptr) entry = std::make_unique<Entry>();
  entry->rpf_vif = rpf_vif;
  entry->rpf_neighbor = rpf_neighbor;

  const auto forwarded = packet::WithDecrementedTtl(datagram);
  if (!forwarded) {
    ++stats_.data_dropped_ttl;
    MaybePrune(sg, *entry);
    return;
  }

  bool sent_somewhere = false;
  // Every output carries the same bytes: stage them in the arena once and
  // fan the shared buffer out by reference.
  netsim::PacketRef shared;
  const auto shared_ref = [&]() -> const netsim::PacketRef& {
    if (!shared.valid()) shared = sim_->MakePacket(*forwarded);
    return shared;
  };
  // Flood to every other router-bearing interface not fully pruned.
  for (const VifIndex out : RouterVifs()) {
    if (out == vif) continue;
    if (VifFullyPruned(*entry, out)) {
      ++stats_.data_dropped_pruned;
      continue;
    }
    ++stats_.data_forwarded;
    sim_->SendDatagramRef(self_, out, ip.dst, shared_ref());
    sent_somewhere = true;
  }
  // Deliver onto member LANs (querier only, to avoid LAN duplicates).
  for (const VifIndex out : igmp_.MemberVifs(ip.dst)) {
    if (out == vif || !igmp_.IsQuerier(out)) continue;
    if (sim_->subnet(sim_->interface(self_, out).subnet)
            .address.Contains(ip.src)) {
      continue;
    }
    ++stats_.data_delivered_lan;
    sim_->SendDatagramRef(self_, out, ip.dst, shared_ref());
    sent_somewhere = true;
  }
  (void)sent_somewhere;
  MaybePrune(sg, *entry);
}

bool DvmrpRouter::VifFullyPruned(const Entry& entry, VifIndex vif) const {
  const auto it = entry.prunes.find(vif);
  if (it == entry.prunes.end() || it->second.empty()) return false;
  return it->second.size() >= NeighborRouterCount(vif);
}

void DvmrpRouter::MaybePrune(SourceGroup sg, Entry& entry) {
  if (entry.prune_sent) return;
  if (entry.rpf_neighbor.IsUnspecified()) return;  // first-hop router
  if (igmp_.AnyMembers(sg.second)) return;
  for (const VifIndex vif : RouterVifs()) {
    if (vif == entry.rpf_vif) continue;
    if (!VifFullyPruned(entry, vif)) return;
  }
  DvmrpMessage prune;
  prune.type = DvmrpType::kPrune;
  prune.group = sg.second;
  prune.source = sg.first;
  prune.lifetime_s =
      static_cast<std::uint32_t>(config_.prune_lifetime / kSecond);
  ++stats_.prunes_sent;
  SendMessage(entry.rpf_vif, entry.rpf_neighbor, prune);
  entry.prune_sent = true;
}

void DvmrpRouter::HandleControl(VifIndex vif, const packet::Ipv4Header& ip,
                                const DvmrpMessage& msg) {
  const SourceGroup sg{msg.source, msg.group};
  switch (msg.type) {
    case DvmrpType::kPrune: {
      ++stats_.prunes_received;
      auto& entry = entries_[sg];
      if (entry == nullptr) entry = std::make_unique<Entry>();
      entry->prunes[vif].insert(ip.src);
      // Prune state ages out; traffic then re-floods (the DVMRP cost the
      // CBT paper highlights).
      netsim::Timer& timer = entry->prune_expiry[ip.src];
      timer.BindTo(*sim_);
      Entry* raw = entry.get();
      const Ipv4Address neighbor = ip.src;
      timer.Schedule(config_.prune_lifetime, [raw, vif, neighbor] {
        raw->prunes[vif].erase(neighbor);
      });
      // If we are now fully pruned below, propagate upstream.
      MaybePrune(sg, *entry);
      return;
    }
    case DvmrpType::kGraft: {
      ++stats_.grafts_received;
      // Grafts are acknowledged hop by hop (RFC 1075 reliability).
      DvmrpMessage ack = msg;
      ack.type = DvmrpType::kGraftAck;
      ++stats_.graft_acks_sent;
      SendMessage(vif, ip.src, ack);

      const auto it = entries_.find(sg);
      if (it == entries_.end()) return;
      Entry& entry = *it->second;
      entry.prunes[vif].erase(ip.src);
      entry.prune_expiry.erase(ip.src);
      if (entry.prune_sent) {
        // Re-attach upstream too.
        entry.prune_sent = false;
        SendGraftUpstream(sg, entry);
      }
      return;
    }
    case DvmrpType::kGraftAck: {
      ++stats_.graft_acks_received;
      const auto it = entries_.find(sg);
      if (it != entries_.end()) {
        it->second->graft_rtx.Cancel();
        it->second->graft_attempts = 0;
      }
      return;
    }
  }
}

void DvmrpRouter::OnMemberAppeared(Ipv4Address group) {
  // Graft every pruned source tree for this group.
  for (auto& [sg, entry] : entries_) {
    if (sg.second != group || !entry->prune_sent) continue;
    entry->prune_sent = false;
    SendGraftUpstream(sg, *entry);
  }
}

void DvmrpRouter::SendGraftUpstream(SourceGroup sg, Entry& entry) {
  if (entry.graft_attempts >= 5) {
    entry.graft_attempts = 0;
    return;  // give up; the prune will age out and data re-floods anyway
  }
  if (entry.graft_attempts > 0) ++stats_.graft_retransmits;
  ++entry.graft_attempts;
  DvmrpMessage graft;
  graft.type = DvmrpType::kGraft;
  graft.group = sg.second;
  graft.source = sg.first;
  ++stats_.grafts_sent;
  SendMessage(entry.rpf_vif, entry.rpf_neighbor, graft);
  Entry* raw = &entry;
  entry.graft_rtx.BindTo(*sim_);
  entry.graft_rtx.Schedule(5 * kSecond, [this, sg, raw] {
    SendGraftUpstream(sg, *raw);
  });
}

void DvmrpRouter::SendMessage(VifIndex vif, Ipv4Address dst,
                              const DvmrpMessage& msg) {
  const auto body = msg.Encode();
  BufferWriter out(packet::kIpv4HeaderSize + packet::kUdpHeaderSize +
                   body.size());
  packet::Ipv4Header ip;
  ip.src = sim_->interface(self_, vif).address;
  ip.dst = dst;
  ip.ttl = 1;  // hop-by-hop
  ip.protocol = IpProtocol::kUdp;
  ip.Encode(out, packet::kUdpHeaderSize + body.size());
  packet::UdpHeader udp{kDvmrpPort, kDvmrpPort};
  udp.Encode(out, body.size());
  out.WriteBytes(body);
  auto bytes = std::move(out).Take();
  stats_.control_bytes_sent += bytes.size();
  sim_->SendDatagram(self_, vif, dst, std::move(bytes));
}

std::size_t DvmrpRouter::StateUnits() const {
  std::size_t units = 0;
  for (const auto& [sg, entry] : entries_) {
    units += 1;
    for (const auto& [vif, pruners] : entry->prunes) units += pruners.size();
  }
  return units;
}

}  // namespace cbt::baselines
