#include "netsim/simulator.h"

#include <stdexcept>
#include <utility>


namespace cbt::netsim {
namespace {

// Point-to-point subnets are carved from 10.255.0.0/16 as /30s; LANs are
// expected to use distinct prefixes supplied by the caller.
constexpr std::uint32_t kP2pBase = (10u << 24) | (255u << 16);

// Scoped-change journal bound. Consumers that fall further behind than
// this must treat the whole topology as changed (routing falls back to a
// full invalidation), so the cap only trades precision, not correctness.
constexpr std::size_t kTopologyJournalCap = 256;

}  // namespace

Simulator::Simulator(std::uint64_t seed)
    : rng_(seed), trace_(obs::ProcessTraceBuffer()) {}

void Simulator::SetMetrics(obs::Registry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  for (SubnetRecord& s : subnets_) {
    obs::BindStats(*metrics_,
                   "netsim.subnet." + std::to_string(s.id.value()),
                   s.counters);
  }
}

NodeId Simulator::AddNode(std::string name, bool is_router) {
  const NodeId id(static_cast<std::int32_t>(nodes_.size()));
  nodes_.push_back(NodeRecord{id, std::move(name), is_router, true, {}, nullptr});
  return id;
}

SubnetId Simulator::AddSubnet(std::string name, SubnetAddress address,
                              SimDuration delay) {
  const SubnetId id(static_cast<std::int32_t>(subnets_.size()));
  SubnetRecord rec;
  rec.id = id;
  rec.name = std::move(name);
  rec.address = address;
  rec.delay = delay;
  subnets_.push_back(std::move(rec));
  if (metrics_ != nullptr) {
    obs::BindStats(*metrics_, "netsim.subnet." + std::to_string(id.value()),
                   subnets_.back().counters);
  }
  return id;
}

VifIndex Simulator::Attach(NodeId node_id, SubnetId subnet_id) {
  return AttachWithHostPart(node_id, subnet_id, subnet(subnet_id).next_host);
}

VifIndex Simulator::AttachWithHostPart(NodeId node_id, SubnetId subnet_id,
                                       std::uint32_t host_part) {
  NodeRecord& n = node(node_id);
  SubnetRecord& s = subnet(subnet_id);
  const Ipv4Address addr = s.address.HostAddress(host_part);
  if (host_part >= s.next_host) s.next_host = host_part + 1;

  Interface iface;
  iface.node = node_id;
  iface.subnet = subnet_id;
  iface.vif = static_cast<VifIndex>(n.interfaces.size());
  iface.address = addr;
  n.interfaces.push_back(iface);
  s.attachments.emplace_back(node_id, iface.vif);
  // A shared address resolves to its lowest-numbered owner, the node a
  // scan in id order would find first.
  const auto [it, inserted] = address_index_.try_emplace(addr, node_id);
  if (!inserted && node_id < it->second) it->second = node_id;
  RecordTopologyChange(TopologyChange::Kind::kAttach, subnet_id, node_id,
                       true);
  return iface.vif;
}

SubnetId Simulator::Connect(NodeId a, NodeId b, SimDuration delay, double cost) {
  static_assert(kP2pBase != 0);
  // Allocate the next /30 deterministically from the subnet count.
  const std::uint32_t index = static_cast<std::uint32_t>(subnets_.size());
  const SubnetAddress addr = SubnetAddress::FromPrefix(
      Ipv4Address(kP2pBase | (index << 2)), 30);
  const SubnetId sid =
      AddSubnet("p2p-" + node(a).name + "-" + node(b).name, addr, delay);
  subnet(sid).multi_access = false;
  const VifIndex va = Attach(a, sid);
  const VifIndex vb = Attach(b, sid);
  node(a).interfaces[static_cast<std::size_t>(va)].cost = cost;
  node(b).interfaces[static_cast<std::size_t>(vb)].cost = cost;
  return sid;
}

void Simulator::SetAgent(NodeId node_id, NetworkAgent* agent) {
  node(node_id).agent = agent;
}

void Simulator::StartAgents() {
  for (NodeRecord& n : nodes_) {
    if (n.agent != nullptr) n.agent->Start();
  }
}

std::optional<NodeId> Simulator::FindNodeByAddress(Ipv4Address address) const {
  const auto it = address_index_.find(address);
  if (it == address_index_.end()) return std::nullopt;
  return it->second;
}

Ipv4Address Simulator::PrimaryAddress(NodeId node_id) const {
  const NodeRecord& n = node(node_id);
  if (n.interfaces.empty()) return Ipv4Address{};
  return n.interfaces.front().address;
}

std::optional<NodeId> Simulator::FindNodeByName(const std::string& name) const {
  for (const NodeRecord& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return std::nullopt;
}

void Simulator::SetSubnetUp(SubnetId subnet_id, bool up) {
  SubnetRecord& s = subnet(subnet_id);
  if (s.up != up) {
    s.up = up;
    RecordTopologyChange(TopologyChange::Kind::kSubnetState, subnet_id,
                         NodeId{}, up);
  }
}

void Simulator::SetInterfaceUp(NodeId node_id, VifIndex vif, bool up) {
  Interface& iface =
      node(node_id).interfaces.at(static_cast<std::size_t>(vif));
  if (iface.up != up) {
    iface.up = up;
    RecordTopologyChange(TopologyChange::Kind::kInterfaceState, iface.subnet,
                         node_id, up);
  }
}

void Simulator::SetNodeUp(NodeId node_id, bool up) {
  NodeRecord& n = node(node_id);
  if (n.up != up) {
    n.up = up;
    RecordTopologyChange(TopologyChange::Kind::kNodeState, SubnetId{}, node_id,
                         up);
  }
}

void Simulator::RecordTopologyChange(TopologyChange::Kind kind,
                                     SubnetId subnet_id, NodeId node_id,
                                     bool up) {
  ++topology_epoch_;
  if (topology_journal_.size() >= kTopologyJournalCap) {
    // Drop the older half in one move; amortized O(1) per change.
    topology_journal_.erase(
        topology_journal_.begin(),
        topology_journal_.begin() + kTopologyJournalCap / 2);
  }
  topology_journal_.push_back(
      TopologyChange{kind, topology_epoch_, subnet_id, node_id, up});
  static const char* const kKindNames[] = {"subnet-state", "interface-state",
                                           "node-state", "attach"};
  OBS_TRACE(trace(), .time = Now(), .kind = obs::TraceKind::kTopology,
            .name = kKindNames[static_cast<std::size_t>(kind)],
            .node = node_id.value(),
            .arg_a = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(subnet_id.value())),
            .arg_b = up ? 1u : 0u);
}

std::optional<std::span<const TopologyChange>> Simulator::ChangesSince(
    std::uint64_t since) const {
  if (since >= topology_epoch_) {
    return std::span<const TopologyChange>{};
  }
  // Entries are contiguous (one per epoch) and end at topology_epoch_, so
  // the requested range is present iff the journal is long enough.
  const std::uint64_t count = topology_epoch_ - since;
  if (count > topology_journal_.size()) return std::nullopt;
  return std::span<const TopologyChange>(topology_journal_)
      .last(static_cast<std::size_t>(count));
}

void Simulator::SetSubnetLossRate(SubnetId subnet_id, double loss_rate) {
  subnet(subnet_id).faults.loss_rate = loss_rate;
}

void Simulator::SetSubnetFaults(SubnetId subnet_id,
                                const FaultProfile& faults) {
  subnet(subnet_id).faults = faults;
}

bool Simulator::SendDatagram(NodeId node_id, VifIndex vif,
                             Ipv4Address link_dst,
                             std::span<const std::uint8_t> datagram) {
  const NodeRecord& sender = node(node_id);
  if (!sender.up) return false;
  const Interface& out = sender.interfaces.at(static_cast<std::size_t>(vif));
  SubnetRecord& s = subnet(out.subnet);
  SubnetCounters& counters = s.counters;
  if (!out.up || !s.up) {
    ++counters.frames_dropped;
    return false;
  }

  ++counters.frames_sent;
  counters.bytes_sent += datagram.size();
  if (frame_observer_) {
    frame_observer_(FrameEvent{Now(), node_id, s.id, link_dst,
                               datagram.size(), datagram});
  }

  // The payload is copied once into the packet arena and shared among all
  // receivers of a multicast frame; delivery closures hold cheap
  // refcounted handles instead of per-hop heap allocations.
  const PacketRef shared = arena_.Make(datagram);
  return FanOut(node_id, vif, out, s, link_dst, shared);
}

bool Simulator::SendDatagramRef(NodeId node_id, VifIndex vif,
                                Ipv4Address link_dst,
                                const PacketRef& payload) {
  const NodeRecord& sender = node(node_id);
  if (!sender.up) return false;
  const Interface& out = sender.interfaces.at(static_cast<std::size_t>(vif));
  SubnetRecord& s = subnet(out.subnet);
  SubnetCounters& counters = s.counters;
  if (!out.up || !s.up) {
    ++counters.frames_dropped;
    return false;
  }

  ++counters.frames_sent;
  counters.bytes_sent += payload.bytes().size();
  if (frame_observer_) {
    frame_observer_(FrameEvent{Now(), node_id, s.id, link_dst,
                               payload.bytes().size(), payload.bytes()});
  }
  return FanOut(node_id, vif, out, s, link_dst, payload);
}

bool Simulator::FanOut(NodeId node_id, VifIndex vif, const Interface& out,
                       SubnetRecord& s, Ipv4Address link_dst,
                       const PacketRef& shared) {
  SubnetCounters& counters = s.counters;
  const bool multi = link_dst.IsMulticast() ||
                     link_dst == Ipv4Address(0xFFFFFFFFu);  // broadcast
  const FaultProfile& faults = s.faults;

  // Batched hop delivery: a fault-free multicast fan-out of N receivers
  // becomes ONE vectored delivery event instead of N. Ordering proof: the
  // N per-receiver closures would be scheduled consecutively at the same
  // time with consecutive sequence numbers, so no other event can hold an
  // intermediate slot — running the receivers back-to-back inside one
  // event preserves the strict (time, sequence) order contract exactly.
  // Receiver-side up/down checks stay at delivery time (DeliverFrame), so
  // frames in flight still die with a link or node, and the attachment
  // count is snapshotted so receivers attached after the transmission
  // (AttachHost mid-run) are not reached — both identical to the
  // per-receiver path. Faulty subnets (per-receiver RNG draws) always use
  // per-receiver events.
  if (multi && !faults.Any() && s.attachments.size() > 2) {
    const SubnetId sid = s.id;
    const auto count = static_cast<std::uint32_t>(s.attachments.size());
    const Ipv4Address link_src = out.address;
    auto deliver_all = [this, sid, count, node_id, vif, link_src, link_dst,
                        payload = shared] {
      // Re-fetch per iteration: a receiver's agent may attach new nodes
      // to this subnet mid-batch, reallocating the attachment vector.
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto [peer, peer_vif] = subnet(sid).attachments[i];
        if (peer == node_id && peer_vif == vif) continue;  // no self-delivery
        // InjectDelivery, not DeliverFrame: the one payload ref feeds
        // every receiver in turn, so it must never look patchable.
        InjectDelivery(peer, peer_vif, link_src, link_dst, payload.bytes());
      }
    };
    // Every frame pays for a heap allocation if its closure outgrows the
    // event's inline buffer; this one fills it exactly.
    static_assert(EventFn::kFitsInline<decltype(deliver_all)>);
    Schedule(s.delay, std::move(deliver_all));
    return true;
  }

  for (const auto& [peer, peer_vif] : s.attachments) {
    if (peer == node_id && peer_vif == vif) continue;  // no self-delivery
    // Only a unicast frame filters on the receiver's address; a multicast
    // one reaches every attachment, and delivery checks the interface.
    if (!multi && interface(peer, peer_vif).address != link_dst) continue;
    if (faults.loss_rate > 0.0 && rng_.NextBool(faults.loss_rate)) {
      ++counters.frames_dropped;
      continue;
    }
    const Ipv4Address link_src = out.address;

    // Per-receiver fault application. Every copy (original + duplicate)
    // rolls corruption and jitter independently, so a duplicate can be
    // clean while the original is mangled and vice versa.
    int copies = 1;
    if (faults.duplicate_rate > 0.0 && rng_.NextBool(faults.duplicate_rate)) {
      ++copies;
      ++counters.frames_duplicated;
    }
    for (int copy = 0; copy < copies; ++copy) {
      SimDuration delay = s.delay;
      const bool jitter_eligible =
          faults.reorder_jitter > 0 &&
          (copy > 0 ||  // duplicates always trail the original
           (faults.reorder_rate > 0.0 && rng_.NextBool(faults.reorder_rate)));
      if (jitter_eligible) {
        delay += static_cast<SimDuration>(
            rng_.NextBelow(static_cast<std::uint64_t>(faults.reorder_jitter)) +
            1);
        if (copy == 0) ++counters.frames_reordered;
      }
      PacketRef payload = shared;
      if (faults.corrupt_rate > 0.0 && !shared.bytes().empty() &&
          rng_.NextBool(faults.corrupt_rate)) {
        PacketRef mangled = arena_.Clone(shared);
        const std::span<std::uint8_t> bytes = arena_.MutableBytes(mangled);
        const std::size_t byte =
            static_cast<std::size_t>(rng_.NextBelow(bytes.size()));
        const std::uint8_t bit = static_cast<std::uint8_t>(
            1u << rng_.NextBelow(8));
        bytes[byte] ^= bit;
        payload = std::move(mangled);
        ++counters.frames_corrupted;
      }
      auto deliver = [this, peer, peer_vif, link_src, link_dst,
                      payload = std::move(payload)] {
        DeliverFrame(peer, peer_vif, link_src, link_dst, payload);
      };
      static_assert(EventFn::kFitsInline<decltype(deliver)>);
      Schedule(delay, std::move(deliver));
    }
    if (!multi) break;  // unicast reaches exactly one interface
  }
  return true;
}

void Simulator::DeliverFrame(NodeId receiver, VifIndex vif,
                             Ipv4Address link_src, Ipv4Address link_dst,
                             const PacketRef& datagram) {
  // Expose the arriving ref for the duration of the agent callback so a
  // sole-owner transit hop can patch and resend it without a copy.
  // Deliveries are scheduled, never synchronous, so this cannot nest.
  current_delivery_ = &datagram;
  InjectDelivery(receiver, vif, link_src, link_dst, datagram.bytes());
  current_delivery_ = nullptr;
}

void Simulator::InjectDelivery(NodeId receiver, VifIndex vif,
                               Ipv4Address link_src, Ipv4Address link_dst,
                               std::span<const std::uint8_t> datagram) {
  NodeRecord& n = node(receiver);
  const Interface& in = n.interfaces.at(static_cast<std::size_t>(vif));
  SubnetRecord& s = subnet(in.subnet);
  // Frames in flight die with the link or receiver.
  if (!n.up || !in.up || !s.up) {
    ++s.counters.frames_dropped;
    return;
  }
  if (n.agent != nullptr) {
    n.agent->OnDatagram(vif, link_src, link_dst, datagram);
  }
}

void Simulator::ResetCounters() {
  for (SubnetRecord& s : subnets_) s.counters.Reset();
  // Protocol counters reset in the same stroke, so a windowed measurement
  // (reset; run; read) never mixes warmup traffic into either layer.
  for (NodeRecord& n : nodes_) {
    if (n.agent != nullptr) n.agent->ResetProtocolCounters();
  }
}

void Simulator::RunUntil(SimTime until) {
  while (events_.RunNextUntil(until, clock_)) {
  }
  if (clock_ < until) clock_ = until;
}

void Simulator::RunUntilIdle(std::size_t max_events) {
  std::size_t executed = 0;
  while (!events_.Empty() && executed < max_events) {
    events_.RunNext(clock_);
    ++executed;
  }
}

}  // namespace cbt::netsim
