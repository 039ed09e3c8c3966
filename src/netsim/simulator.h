// The network simulator: nodes, interfaces, subnets, and frame delivery.
//
// Model
// -----
// A *subnet* is a broadcast segment — either a multi-access LAN (the spec's
// S1..S15) or a point-to-point link / tunnel (a two-interface subnet). A
// *node* (router or host) attaches to subnets through *interfaces*, each
// with an IPv4 address and a node-local vif index (the spec's "vif").
//
// Frame delivery is link-layer-ish: a sender emits an IP datagram on one of
// its vifs addressed to a link-level destination (the interface owning a
// unicast IP on that subnet, or every other interface for a multicast /
// broadcast destination). Delivery happens one subnet `delay` later.
// There is no implicit forwarding — routers are protocol agents that parse
// the datagram and re-emit it, exactly like a real hop-by-hop router.
//
// Failure injection: subnets, interfaces and whole nodes can be marked
// down; frames in flight to a dead receiver are dropped at delivery time,
// matching a real link cut. Beyond clean cuts, every subnet carries a
// FaultProfile (loss, duplication, reordering jitter, payload corruption)
// applied independently per receiver, and netsim/chaos.h schedules timed
// fault events (flaps, crashes, partitions) deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "netsim/event_queue.h"
#include "netsim/packet_arena.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cbt::netsim {

class Simulator;

/// A protocol stack attached to a node. The simulator hands every frame
/// that physically reaches one of the node's interfaces to its agent;
/// promiscuity choices (e.g. routers receiving all multicasts, per spec
/// section 2.2) are the agent's business.
class NetworkAgent {
 public:
  virtual ~NetworkAgent() = default;

  /// Called when an IP datagram arrives on `vif`. `link_src` is the
  /// sending interface's address on this subnet (the link-layer source a
  /// real NIC would report); `link_dst` is the link-level destination the
  /// sender used (an interface address on this subnet, or a
  /// multicast/broadcast group).
  virtual void OnDatagram(VifIndex vif, Ipv4Address link_src,
                          Ipv4Address link_dst,
                          std::span<const std::uint8_t> datagram) = 0;

  /// Called once after the agent is attached, with the simulator clock
  /// running; protocols start their timers here.
  virtual void Start() {}

  /// Called by Simulator::ResetCounters(): agents zero their protocol
  /// counters so benches that diff measurement windows don't double-count
  /// warmup traffic. Delivery ledgers (e.g. a host's per-group received
  /// counts) are state, not counters, and must survive.
  virtual void ResetProtocolCounters() {}
};

/// One attachment point of a node to a subnet.
struct Interface {
  NodeId node;
  SubnetId subnet;
  VifIndex vif = kInvalidVif;
  Ipv4Address address;
  /// Routing metric *out* of this interface; asymmetric costs allowed.
  double cost = 1.0;
  bool up = true;
};

struct NodeRecord {
  NodeId id;
  std::string name;
  bool is_router = false;
  bool up = true;
  std::vector<Interface> interfaces;
  NetworkAgent* agent = nullptr;  // non-owning; set via SetAgent
};

/// Per-subnet transmission accounting, used by the traffic-concentration
/// experiment (E4) and control-overhead experiment (E6).
struct SubnetCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_dropped = 0;     // loss or down links
  std::uint64_t frames_duplicated = 0;  // extra copies delivered
  std::uint64_t frames_reordered = 0;   // deliveries given extra jitter
  std::uint64_t frames_corrupted = 0;   // deliveries with flipped bits

  /// Field-wise zeroing (via the obs reflection) — deliberately not the
  /// old `*this = SubnetCounters{}` self-assignment, which would sever
  /// any registry binding that mirrors these fields by address.
  void Reset() { obs::ResetStats(*this); }
};

/// obs reflection (see obs/fields.h): registry names + reset + snapshots.
template <typename Counters, typename Fn>
  requires std::is_same_v<std::remove_const_t<Counters>, SubnetCounters>
void ForEachStatsField(Counters& c, Fn&& fn) {
  using Tag = obs::FieldTag;
  fn("frames_sent", c.frames_sent, Tag::kNone);
  fn("bytes_sent", c.bytes_sent, Tag::kNone);
  fn("frames_dropped", c.frames_dropped, Tag::kNone);
  fn("frames_duplicated", c.frames_duplicated, Tag::kNone);
  fn("frames_reordered", c.frames_reordered, Tag::kNone);
  fn("frames_corrupted", c.frames_corrupted, Tag::kNone);
}

/// Per-subnet fault model, applied independently to every receiver of a
/// frame (like independent per-NIC noise). All probabilities in [0, 1].
struct FaultProfile {
  /// Frame silently dropped for this receiver.
  double loss_rate = 0.0;
  /// Receiver gets a second copy of the frame (one extra, delayed by up
  /// to `reorder_jitter` beyond the nominal delay — duplicates in real
  /// networks come from retransmission races, so they trail the original).
  double duplicate_rate = 0.0;
  /// Delivery delayed by a uniform extra amount in (0, reorder_jitter],
  /// letting later frames overtake it: bounded reordering.
  double reorder_rate = 0.0;
  SimDuration reorder_jitter = 0;
  /// One random byte of the datagram is bit-flipped in the receiver's
  /// copy; checksums must catch this (counted by `malformed_control`).
  double corrupt_rate = 0.0;

  bool Any() const {
    return loss_rate > 0.0 || duplicate_rate > 0.0 || reorder_rate > 0.0 ||
           corrupt_rate > 0.0;
  }
};

struct SubnetRecord {
  SubnetId id;
  std::string name;
  SubnetAddress address;
  SimDuration delay = kMillisecond;
  FaultProfile faults;
  /// True for LANs (hosts may attach, proxy-ack applies — section 2.6);
  /// false for point-to-point links and tunnels created via Connect().
  bool multi_access = true;
  bool up = true;
  std::uint32_t next_host = 1;  // next free host part
  std::vector<std::pair<NodeId, VifIndex>> attachments;
  SubnetCounters counters;
};

/// Observer invoked for every frame transmission (before delivery).
struct FrameEvent {
  SimTime time;
  NodeId sender;
  SubnetId subnet;
  Ipv4Address link_dst;
  std::size_t bytes;
  /// The transmitted datagram; valid only for the duration of the
  /// observer call (it may alias a pooled arena buffer).
  std::span<const std::uint8_t> payload;
};

/// One scoped topology mutation, journaled 1:1 with topology-epoch bumps
/// so consumers (unicast routing) can invalidate only the state a change
/// could have touched instead of recomputing the world.
struct TopologyChange {
  enum class Kind : std::uint8_t {
    kSubnetState,     // subnet up/down       (subnet valid)
    kInterfaceState,  // interface up/down    (node + subnet valid)
    kNodeState,       // node up/down         (node valid; scope = its subnets)
    kAttach,          // new attachment added (node + subnet valid; up=true)
  };
  Kind kind;
  std::uint64_t epoch = 0;  // topology_epoch() value after this change
  SubnetId subnet;
  NodeId node;
  bool up = true;  // the new state
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- Topology construction -------------------------------------------

  NodeId AddNode(std::string name, bool is_router);

  SubnetId AddSubnet(std::string name, SubnetAddress address,
                     SimDuration delay = kMillisecond);

  /// Attaches `node` to `subnet`; the interface address is the next free
  /// host address on the subnet. Returns the new vif index.
  VifIndex Attach(NodeId node, SubnetId subnet);

  /// Attaches with an explicit host part (e.g. to force address ordering
  /// for DR-election tests).
  VifIndex AttachWithHostPart(NodeId node, SubnetId subnet,
                              std::uint32_t host_part);

  /// Convenience: creates a /30 point-to-point subnet joining two nodes.
  SubnetId Connect(NodeId a, NodeId b, SimDuration delay = kMillisecond,
                   double cost = 1.0);

  void SetAgent(NodeId node, NetworkAgent* agent);

  /// Runs every agent's Start() hook; call once after topology setup.
  void StartAgents();

  // --- Accessors ---------------------------------------------------------

  SimTime Now() const { return clock_; }
  Rng& rng() { return rng_; }

  // --- Observability ------------------------------------------------------

  /// Attaches a metrics registry: existing and future subnet counters are
  /// mirrored under `netsim.subnet.<id>.<field>`. Protocol agents bind
  /// their own stats via their domain's BindMetrics(). Pass nullptr to
  /// detach (bindings in the registry persist but stop being updated
  /// only when their owners die — detach before tearing the sim down
  /// if the registry outlives it).
  void SetMetrics(obs::Registry* metrics);

  /// Trace buffer for this simulation. Defaults to the process-wide
  /// buffer (obs::SetProcessTraceBuffer) captured at construction; null
  /// means tracing off. Recording is passive — event order, RNG draws
  /// and all outputs are byte-identical with tracing on or off.
  void SetTrace(obs::TraceBuffer* trace) { trace_ = trace; }
  obs::TraceBuffer* trace() const { return trace_; }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t subnet_count() const { return subnets_.size(); }

  const NodeRecord& node(NodeId id) const {
    return nodes_.at(static_cast<std::size_t>(id.value()));
  }
  NodeRecord& node(NodeId id) {
    return nodes_.at(static_cast<std::size_t>(id.value()));
  }
  const SubnetRecord& subnet(SubnetId id) const {
    return subnets_.at(static_cast<std::size_t>(id.value()));
  }
  SubnetRecord& subnet(SubnetId id) {
    return subnets_.at(static_cast<std::size_t>(id.value()));
  }

  const Interface& interface(NodeId node_id, VifIndex vif) const {
    return node(node_id).interfaces.at(static_cast<std::size_t>(vif));
  }

  /// Looks up the node owning `address`, if any (the lowest node id when
  /// several interfaces share it). Hash lookup, kept current by Attach.
  std::optional<NodeId> FindNodeByAddress(Ipv4Address address) const;

  /// First interface address of a node — its conventional "router id".
  Ipv4Address PrimaryAddress(NodeId node) const;

  /// Finds a node by construction name (test convenience; linear scan).
  std::optional<NodeId> FindNodeByName(const std::string& name) const;

  // --- Failure injection -------------------------------------------------

  void SetSubnetUp(SubnetId subnet, bool up);
  void SetInterfaceUp(NodeId node, VifIndex vif, bool up);
  /// A down node neither sends nor receives; its timers still fire but
  /// SendDatagram becomes a no-op (agents may also be swapped out).
  void SetNodeUp(NodeId node, bool up);
  void SetSubnetLossRate(SubnetId subnet, double loss_rate);
  /// Installs a full fault model on a subnet (loss, duplication,
  /// reordering, corruption); replaces any previous profile.
  void SetSubnetFaults(SubnetId subnet, const FaultProfile& faults);

  /// Epoch counter bumped on every up/down change; routing watches this.
  std::uint64_t topology_epoch() const { return topology_epoch_; }

  /// The scoped changes with epoch in (since, topology_epoch()], oldest
  /// first. nullopt when the bounded journal has already discarded part
  /// of that range — the caller must then assume everything changed.
  std::optional<std::span<const TopologyChange>> ChangesSince(
      std::uint64_t since) const;

  // --- Data plane ----------------------------------------------------------

  /// Emits `datagram` from `node` out of `vif`, link-addressed to
  /// `link_dst`. Multicast/broadcast destinations reach every other live
  /// attachment on the subnet; unicast reaches the owning interface.
  /// Returns false if the frame could not be transmitted at all (node,
  /// interface, or subnet down). The bytes are copied once into the
  /// packet arena, so callers encode into a stack or reused buffer.
  bool SendDatagram(NodeId node, VifIndex vif, Ipv4Address link_dst,
                    std::span<const std::uint8_t> datagram);
  bool SendDatagram(NodeId node, VifIndex vif, Ipv4Address link_dst,
                    std::initializer_list<std::uint8_t> datagram) {
    return SendDatagram(node, vif, link_dst,
                        std::span<const std::uint8_t>(datagram.begin(),
                                                      datagram.size()));
  }

  /// Copies `datagram` into the packet arena and returns the pooled
  /// handle. Pair with SendDatagramRef so one arena copy serves a whole
  /// fan-out (the data-plane encode-once path).
  PacketRef MakePacket(std::span<const std::uint8_t> datagram) {
    return arena_.Make(datagram);
  }

  /// Like SendDatagram but transmits an already-pooled payload without
  /// re-copying it; several sends may share one PacketRef. Wire bytes,
  /// counters, fault draws and delivery order are identical to the
  /// vector overload.
  bool SendDatagramRef(NodeId node, VifIndex vif, Ipv4Address link_dst,
                       const PacketRef& payload);

  /// Mutable view of a packet just staged with MakePacket, valid only
  /// while the caller holds the sole reference (asserted by the arena).
  /// Lets the data plane patch a header in place instead of copying the
  /// datagram through an intermediate buffer first.
  std::span<std::uint8_t> MutablePacket(const PacketRef& ref) {
    return arena_.MutableBytes(ref);
  }

  /// Zero-copy transit: while an agent is inside OnDatagram for a
  /// per-receiver frame delivery, this returns the arena handle of the
  /// arriving buffer — IF the delivery closure is its sole owner and
  /// `datagram` is exactly that buffer. The agent may then patch the
  /// bytes in place (TTL decrement) and retransmit the same handle with
  /// SendDatagramRef, eliding the per-hop copy entirely. Returns nullptr
  /// whenever sharing could be observed: batched fan-outs (one buffer,
  /// many receivers), duplicated/corrupted copies still in flight, or a
  /// sub-span (decapsulated inner packet).
  const PacketRef* PatchableDeliveryRef(
      std::span<const std::uint8_t> datagram) {
    const PacketRef* ref = current_delivery_;
    if (ref == nullptr || !arena_.SoleRefHere(*ref)) return nullptr;
    const std::span<const std::uint8_t> bytes = ref->bytes();
    if (bytes.data() != datagram.data() || bytes.size() != datagram.size()) {
      return nullptr;
    }
    return ref;
  }

  void SetFrameObserver(std::function<void(const FrameEvent&)> observer) {
    frame_observer_ = std::move(observer);
  }

  void ResetCounters();

  // --- Scheduling ----------------------------------------------------------

  // Scheduling takes any callable EventFn accepts and builds it straight
  // in the event queue's slab slot.
  template <typename F>
  EventId Schedule(SimDuration delay, F&& fn) {
    return events_.ScheduleAt(clock_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    return events_.ScheduleAt(when, std::forward<F>(fn));
  }
  bool Cancel(EventId id) { return events_.Cancel(id); }
  /// Cancel(id) followed by Schedule(delay, fn), as one queue operation
  /// (EventQueue::Reschedule moves the pending event to the bucket of its
  /// new time without freeing its slab slot).
  template <typename F>
  EventId Reschedule(EventId id, SimDuration delay, F&& fn) {
    return events_.Reschedule(id, clock_ + delay, std::forward<F>(fn));
  }

  const EventQueue& events() const { return events_; }
  const PacketArena& packet_arena() const { return arena_; }

  /// Runs events until `until` (inclusive); leaves later events queued.
  void RunUntil(SimTime until);

  /// Runs until the event queue drains or `max_events` have executed.
  /// Protocol keepalive timers re-arm forever, so most tests use RunUntil.
  void RunUntilIdle(std::size_t max_events = 1'000'000);

 private:
  void DeliverFrame(NodeId receiver, VifIndex vif, Ipv4Address link_src,
                    Ipv4Address link_dst, const PacketRef& datagram);

  /// The tail of frame delivery (down-check, drop accounting, agent
  /// OnDatagram) for a datagram whose ref is not exposed as patchable.
  void InjectDelivery(NodeId receiver, VifIndex vif, Ipv4Address link_src,
                      Ipv4Address link_dst,
                      std::span<const std::uint8_t> datagram);

  /// Receiver fan-out shared by both SendDatagram overloads: per-receiver
  /// fault application and delivery scheduling (or one batched event).
  bool FanOut(NodeId node, VifIndex vif, const Interface& out,
              SubnetRecord& s, Ipv4Address link_dst, const PacketRef& shared);

  /// Bumps the topology epoch and journals the scoped change.
  void RecordTopologyChange(TopologyChange::Kind kind, SubnetId subnet,
                            NodeId node, bool up);

  /// The frame ref currently being delivered (set around the agent
  /// callback in DeliverFrame; see PatchableDeliveryRef). Never set for
  /// batched deliveries — their one ref feeds several receivers.
  const PacketRef* current_delivery_ = nullptr;

  SimTime clock_ = 0;
  PacketArena arena_;  // outlives events_: queued closures hold PacketRefs
  EventQueue events_;
  Rng rng_;
  std::vector<NodeRecord> nodes_;
  std::vector<SubnetRecord> subnets_;
  /// Interface address -> owning node, for FindNodeByAddress.
  std::unordered_map<Ipv4Address, NodeId> address_index_;
  std::uint64_t topology_epoch_ = 0;
  /// Ring of recent scoped changes, one per epoch bump, contiguous up to
  /// topology_epoch(); trimmed from the front when it outgrows the cap.
  std::vector<TopologyChange> topology_journal_;
  std::function<void(const FrameEvent&)> frame_observer_;
  obs::Registry* metrics_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace cbt::netsim
