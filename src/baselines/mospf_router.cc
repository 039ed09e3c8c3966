#include "baselines/mospf_router.h"

#include <algorithm>

#include "common/checksum.h"

namespace cbt::baselines {

using packet::IpProtocol;

namespace {
constexpr std::size_t kLsaSize = 20;
}

std::vector<std::uint8_t> MembershipLsa::Encode() const {
  BufferWriter out(kLsaSize);
  out.WriteU8(1);  // LSA type: group membership
  out.WriteU8(member ? 1 : 0);
  const std::size_t checksum_offset = out.size();
  out.WriteU16(0);
  out.WriteAddress(advertising_router);
  out.WriteAddress(group);
  out.WriteU32(sequence);
  out.WriteU32(0);  // reserved
  out.PatchU16(checksum_offset, InternetChecksum(out.View()));
  return std::move(out).Take();
}

std::optional<MembershipLsa> MembershipLsa::Decode(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kLsaSize) return std::nullopt;
  if (!VerifyInternetChecksum(bytes.subspan(0, kLsaSize))) return std::nullopt;
  BufferReader in(bytes);
  if (in.ReadU8() != 1) return std::nullopt;
  MembershipLsa lsa;
  const std::uint8_t member_byte = in.ReadU8();
  if (member_byte > 1) return std::nullopt;
  lsa.member = member_byte == 1;
  in.ReadU16();  // checksum
  lsa.advertising_router = in.ReadAddress();
  lsa.group = in.ReadAddress();
  lsa.sequence = in.ReadU32();
  if (!lsa.group.IsMulticast()) return std::nullopt;
  return lsa;
}

MospfRouter::MospfRouter(netsim::Simulator& sim, NodeId self,
                         routing::RouteManager& routes,
                         igmp::IgmpConfig igmp_config)
    : sim_(&sim),
      self_(self),
      routes_(&routes),
      igmp_(sim, self, igmp_config,
            igmp::RouterIgmp::Callbacks{
                [this](VifIndex, Ipv4Address group, Ipv4Address, bool newly) {
                  if (newly) OriginateLsa(group, true);
                },
                nullptr,
                [this](VifIndex, Ipv4Address group) {
                  if (!igmp_.AnyMembers(group)) OriginateLsa(group, false);
                },
                [this](VifIndex vif, Ipv4Address dst,
                       const packet::IgmpMessage& msg) {
                  sim_->SendDatagram(
                      self_, vif, dst,
                      packet::BuildIgmpDatagram(
                          sim_->interface(self_, vif).address, dst, msg));
                }}) {}

void MospfRouter::Start() { igmp_.Start(); }

void MospfRouter::OnDatagram(VifIndex vif, Ipv4Address link_src,
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
      if (!udp || udp->dst_port != kMospfPort) return;
      if (const auto lsa = MembershipLsa::Decode(
              parsed->payload.subspan(packet::kUdpHeaderSize))) {
        HandleLsa(vif, link_src, *lsa);
      }
      return;
    }
    default:
      if (ip.dst.IsMulticast() && !ip.dst.IsLinkLocalMulticast()) {
        HandleData(vif, ip, datagram);
      }
      return;
  }
}

void MospfRouter::OriginateLsa(Ipv4Address group, bool member) {
  MembershipLsa lsa;
  lsa.advertising_router = sim_->PrimaryAddress(self_);
  lsa.group = group;
  lsa.sequence = ++my_sequence_;
  lsa.member = member;
  ++stats_.lsas_originated;
  ++membership_epoch_;
  lsdb_[{lsa.advertising_router, group}] = {lsa.sequence, member};
  FloodLsa(lsa, kInvalidVif);
}

void MospfRouter::FloodLsa(const MembershipLsa& lsa, VifIndex arrival_vif) {
  const auto body = lsa.Encode();
  for (const auto& iface : sim_->node(self_).interfaces) {
    if (iface.vif == arrival_vif || !iface.up) continue;
    // Only interfaces with neighbouring routers carry flooding.
    bool has_router = false;
    for (const auto& [peer, pv] : sim_->subnet(iface.subnet).attachments) {
      if (peer != self_ && sim_->node(peer).is_router) has_router = true;
    }
    if (!has_router) continue;

    BufferWriter out(packet::kIpv4HeaderSize + packet::kUdpHeaderSize +
                     body.size());
    packet::Ipv4Header ip;
    ip.src = iface.address;
    ip.dst = kAllRoutersGroup;
    ip.ttl = 1;
    ip.protocol = IpProtocol::kUdp;
    ip.Encode(out, packet::kUdpHeaderSize + body.size());
    packet::UdpHeader udp{kMospfPort, kMospfPort};
    udp.Encode(out, body.size());
    out.WriteBytes(body);
    auto bytes = std::move(out).Take();
    stats_.control_bytes_sent += bytes.size();
    if (arrival_vif != kInvalidVif) ++stats_.lsas_flooded;
    sim_->SendDatagram(self_, iface.vif, kAllRoutersGroup, std::move(bytes));
  }
}

void MospfRouter::HandleLsa(VifIndex vif, Ipv4Address /*link_src*/,
                            const MembershipLsa& lsa) {
  ++stats_.lsas_received;
  if (lsa.advertising_router == sim_->PrimaryAddress(self_)) return;
  const auto key = std::make_pair(lsa.advertising_router, lsa.group);
  const auto it = lsdb_.find(key);
  if (it != lsdb_.end() && it->second.first >= lsa.sequence) return;  // stale
  lsdb_[key] = {lsa.sequence, lsa.member};
  ++membership_epoch_;
  FloodLsa(lsa, vif);  // continue the domain-wide flood
}

std::vector<NodeId> MospfRouter::MemberRouters(Ipv4Address group) const {
  std::vector<NodeId> members;
  for (const auto& [key, value] : lsdb_) {
    if (key.second != group || !value.second) continue;
    if (const auto node = sim_->FindNodeByAddress(key.first)) {
      members.push_back(*node);
    }
  }
  if (igmp_.AnyMembers(group)) members.push_back(self_);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return members;
}

NodeId MospfRouter::AttachmentRouter(Ipv4Address source) {
  // The lowest-addressed live router on the source's subnet (every MOSPF
  // router derives the same answer from the link-state database). The
  // subnet comes from the routing layer's LPM index rather than a scan;
  // LPM ignores liveness, so if the most-specific subnet is down fall back
  // to the liveness-aware scan — with overlapping prefixes a broader live
  // subnet may still contain the source.
  SubnetId sid = routes_->ResolveSubnet(source).value_or(SubnetId{});
  if (sid.IsValid() && !sim_->subnet(sid).up) sid = SubnetId{};
  if (!sid.IsValid()) {
    for (std::size_t si = 0; si < sim_->subnet_count(); ++si) {
      const auto& s = sim_->subnet(SubnetId(static_cast<std::int32_t>(si)));
      if (s.up && s.address.Contains(source)) {
        sid = s.id;
        break;
      }
    }
  }
  if (!sid.IsValid()) return NodeId{};
  const auto& subnet = sim_->subnet(sid);
  NodeId best;
  Ipv4Address best_addr;
  for (const auto& [peer, pv] : subnet.attachments) {
    if (!sim_->node(peer).is_router || !sim_->node(peer).up) continue;
    const Ipv4Address addr = sim_->interface(peer, pv).address;
    if (!best.IsValid() || addr < best_addr) {
      best = peer;
      best_addr = addr;
    }
  }
  return best;
}

const MospfRouter::CacheEntry& MospfRouter::TreePosition(SourceGroup sg) {
  const NodeId root = AttachmentRouter(sg.first);
  const std::uint64_t route_version =
      root.IsValid() ? routes_->TableVersion(root) : 0;
  auto& slot = cache_[sg];
  if (slot != nullptr && slot->membership_epoch == membership_epoch_ &&
      slot->root == root && slot->route_version == route_version) {
    return *slot;
  }
  // (Re)compute the source tree and this router's position on it.
  ++stats_.spt_computations;
  auto entry = std::make_unique<CacheEntry>();
  entry->root = root;
  entry->route_version = route_version;
  entry->membership_epoch = membership_epoch_;
  if (root.IsValid()) {
    std::set<NodeId> downstream_nodes;
    for (const NodeId member : MemberRouters(sg.second)) {
      const auto path = routes_->Path(root, member);
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (path[i] != self_) continue;
        entry->on_tree = true;
        if (i > 0) {
          // Upstream = interface toward the predecessor.
          const NodeId up = path[i - 1];
          for (const auto& iface : sim_->node(self_).interfaces) {
            for (const auto& [peer, pv] :
                 sim_->subnet(iface.subnet).attachments) {
              if (peer == up) entry->upstream_vif = iface.vif;
            }
          }
        }
        if (i + 1 < path.size()) downstream_nodes.insert(path[i + 1]);
      }
    }
    for (const NodeId child : downstream_nodes) {
      for (const auto& iface : sim_->node(self_).interfaces) {
        for (const auto& [peer, pv] : sim_->subnet(iface.subnet).attachments) {
          if (peer == child) {
            entry->children.emplace_back(
                iface.vif, sim_->interface(peer, pv).address);
          }
        }
      }
    }
  }
  slot = std::move(entry);
  return *slot;
}

void MospfRouter::HandleData(VifIndex vif, const packet::Ipv4Header& ip,
                             std::span<const std::uint8_t> datagram) {
  const SourceGroup sg{ip.src, ip.dst};
  const CacheEntry& pos = TreePosition(sg);
  if (!pos.on_tree) {
    ++stats_.data_dropped_off_tree;
    return;
  }

  const auto& arrival = sim_->interface(self_, vif);
  const bool local_origin =
      sim_->subnet(arrival.subnet).address.Contains(ip.src) &&
      igmp_.IsQuerier(vif);
  if (!local_origin && vif != pos.upstream_vif) {
    ++stats_.data_dropped_off_tree;
    return;
  }

  const auto forwarded = packet::WithDecrementedTtl(datagram);
  if (!forwarded) {
    ++stats_.data_dropped_ttl;
    return;
  }

  // Every output carries the same bytes: one arena buffer, shared.
  netsim::PacketRef shared;
  const auto shared_ref = [&]() -> const netsim::PacketRef& {
    if (!shared.valid()) shared = sim_->MakePacket(*forwarded);
    return shared;
  };
  // One native multicast per distinct child interface.
  std::vector<VifIndex> sent_vifs;
  for (const auto& [child_vif, addr] : pos.children) {
    if (child_vif == vif) continue;
    if (std::find(sent_vifs.begin(), sent_vifs.end(), child_vif) !=
        sent_vifs.end()) {
      continue;
    }
    sent_vifs.push_back(child_vif);
    ++stats_.data_forwarded;
    sim_->SendDatagramRef(self_, child_vif, ip.dst, shared_ref());
  }
  // Member LANs.
  for (const VifIndex out : igmp_.MemberVifs(ip.dst)) {
    if (out == vif || !igmp_.IsQuerier(out)) continue;
    if (std::find(sent_vifs.begin(), sent_vifs.end(), out) !=
        sent_vifs.end()) {
      continue;
    }
    if (sim_->subnet(sim_->interface(self_, out).subnet)
            .address.Contains(ip.src)) {
      continue;
    }
    ++stats_.data_delivered_lan;
    sim_->SendDatagramRef(self_, out, ip.dst, shared_ref());
  }
}

std::size_t MospfRouter::StateUnits() const {
  // Membership knowledge held by this router (regardless of traffic) plus
  // the per-(S,G) forwarding cache.
  std::size_t member_entries = 0;
  for (const auto& [key, value] : lsdb_) {
    if (value.second) ++member_entries;
  }
  return member_entries + cache_.size();
}

}  // namespace cbt::baselines
