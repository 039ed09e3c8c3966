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

/// Execution backend that shards one simulation across cores
/// (implemented by exec::pdes::Runtime; see docs/PROTOCOL.md,
/// "Space-parallel PDES & lookahead contract"). While installed, the
/// Simulator routes its clock, RNG, trace sink, event scheduling, frame
/// delivery, and subnet counters through the backend, so events execute
/// on per-region queues with region-local state. With no backend
/// installed (the default) the classic single-threaded engine runs
/// byte-for-byte unchanged.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Committed global time from the coordinator, or the executing
  /// region's local clock while a region event runs.
  virtual SimTime Now() const = 0;
  /// RNG stream of the current execution context. Per-node streams keep
  /// each node's draw sequence independent of the region count.
  virtual Rng& ContextRng() = 0;
  /// Trace sink of the current execution context: a region-local ring
  /// merged into the simulation's base ring in deterministic event-key
  /// order at synchronisation points. Null when tracing is off.
  virtual obs::TraceBuffer* ContextTrace() = 0;
  /// Packet arena of the current execution context; packet refs never
  /// cross regions (cross-region deliveries copy bytes).
  virtual PacketArena& ContextArena() = 0;
  /// Counter sink for `subnet`. Cut subnets (attachments in more than
  /// one region) get per-region delta buffers, summed at
  /// synchronisation points so concurrent regions never share a row.
  virtual SubnetCounters& CountersFor(SubnetRecord& subnet) = 0;
  virtual EventId Schedule(SimTime when, EventFn fn) = 0;
  virtual bool Cancel(EventId id) = 0;
  /// Frame delivery to `receiver` at absolute time `when`. Deliveries
  /// within the sender's region stay packet-arena references; deliveries
  /// into another region become typed channel messages drained at the
  /// next window barrier (always >= lookahead away).
  virtual void ScheduleDelivery(SimTime when, NodeId receiver, VifIndex vif,
                                Ipv4Address link_src, Ipv4Address link_dst,
                                const PacketRef& payload) = 0;
  virtual void RunUntil(SimTime until) = 0;
  virtual void RunUntilIdle(std::size_t max_events) = 0;
  /// Sets the calling thread's node affinity (-1 = none) and returns the
  /// previous value; see AffinityScope below.
  virtual std::int32_t ExchangeAffinity(std::int32_t node) = 0;
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

  SimTime Now() const {
    return backend_ != nullptr ? backend_->Now() : clock_;
  }
  Rng& rng() { return backend_ != nullptr ? backend_->ContextRng() : rng_; }

  /// Seed this simulation was constructed with; shard backends derive
  /// per-node RNG streams from it.
  std::uint64_t seed() const { return seed_; }

  /// The simulation's own RNG regardless of any installed backend — the
  /// backend's coordinator context returns this stream so driver-side
  /// draws stay coherent with pre-install setup draws.
  Rng& base_rng() { return rng_; }

  // --- Observability ------------------------------------------------------

  /// Attaches a metrics registry: existing and future subnet counters are
  /// mirrored under `netsim.subnet.<id>.<field>`. Protocol agents bind
  /// their own stats via their domain's BindMetrics(). Pass nullptr to
  /// detach (bindings in the registry persist but stop being updated
  /// only when their owners die — detach before tearing the sim down
  /// if the registry outlives it).
  void SetMetrics(obs::Registry* metrics);
  obs::Registry* metrics() const { return metrics_; }

  /// Trace buffer for this simulation. Defaults to the process-wide
  /// buffer (obs::SetProcessTraceBuffer) captured at construction; null
  /// means tracing off. Recording is passive — event order, RNG draws
  /// and all outputs are byte-identical with tracing on or off.
  void SetTrace(obs::TraceBuffer* trace) { trace_ = trace; }
  obs::TraceBuffer* trace() const {
    return backend_ != nullptr ? backend_->ContextTrace() : trace_;
  }
  /// The simulation's own ring regardless of any installed backend — the
  /// merge target a shard backend copies region rings into.
  obs::TraceBuffer* base_trace() const { return trace_; }

  /// Lane label for Chrome-trace export when one process runs several
  /// topologies (benches bump it per sweep entry).
  void SetTracePid(int pid) { trace_pid_ = pid; }
  int trace_pid() const { return trace_pid_; }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t subnet_count() const { return subnets_.size(); }

  const NodeRecord& node(NodeId id) const;
  NodeRecord& node(NodeId id);
  const SubnetRecord& subnet(SubnetId id) const;
  SubnetRecord& subnet(SubnetId id);

  const Interface& interface(NodeId node, VifIndex vif) const;

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

  /// Copies `datagram` into the current execution context's packet arena
  /// and returns the pooled handle. Pair with SendDatagramRef so one
  /// arena copy serves a whole fan-out (the data-plane encode-once path).
  PacketRef MakePacket(std::span<const std::uint8_t> datagram) {
    return active_arena().Make(datagram);
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
    return active_arena().MutableBytes(ref);
  }

  /// Zero-copy transit: while an agent is inside OnDatagram for a
  /// per-receiver frame delivery, this returns the arena handle of the
  /// arriving buffer — IF the delivery closure is its sole owner and
  /// `datagram` is exactly that buffer. The agent may then patch the
  /// bytes in place (TTL decrement) and retransmit the same handle with
  /// SendDatagramRef, eliding the per-hop copy entirely. Returns nullptr
  /// whenever sharing could be observed: batched fan-outs (one buffer,
  /// many receivers), shard-backend injections, duplicated/corrupted
  /// copies still in flight, or a sub-span (decapsulated inner packet).
  const PacketRef* PatchableDeliveryRef(
      std::span<const std::uint8_t> datagram) {
    const PacketRef* ref = current_delivery_;
    if (ref == nullptr || !active_arena().SoleRefHere(*ref)) return nullptr;
    const std::span<const std::uint8_t> bytes = ref->bytes();
    if (bytes.data() != datagram.data() || bytes.size() != datagram.size()) {
      return nullptr;
    }
    return ref;
  }

  /// How multicast fan-outs are delivered on the serial engine.
  /// kBatched (default) schedules ONE vectored delivery event per subnet
  /// transmission instead of one event per receiver; the receivers run
  /// back-to-back inside it, in attachment order. This is observationally
  /// identical to per-receiver events: the per-receiver closures would
  /// occupy consecutive (time, sequence) slots that no other event can
  /// interleave. Batching is bypassed whenever it could matter — faulty
  /// subnets (per-receiver RNG draws) and shard backends keep the
  /// per-receiver path. kPerReceiver survives for the differential tests.
  enum class DeliveryMode : std::uint8_t { kBatched, kPerReceiver };
  void SetDeliveryMode(DeliveryMode mode) { delivery_mode_ = mode; }
  DeliveryMode delivery_mode() const { return delivery_mode_; }

  void SetFrameObserver(std::function<void(const FrameEvent&)> observer) {
    frame_observer_ = std::move(observer);
  }

  void ResetCounters();

  // --- Scheduling ----------------------------------------------------------

  EventId Schedule(SimDuration delay, EventFn fn) {
    if (backend_ != nullptr) {
      return backend_->Schedule(backend_->Now() + delay, std::move(fn));
    }
    return events_.ScheduleAt(clock_ + delay, std::move(fn));
  }
  EventId ScheduleAt(SimTime when, EventFn fn) {
    if (backend_ != nullptr) return backend_->Schedule(when, std::move(fn));
    return events_.ScheduleAt(when, std::move(fn));
  }
  bool Cancel(EventId id) {
    return backend_ != nullptr ? backend_->Cancel(id) : events_.Cancel(id);
  }
  /// Cancel(id) followed by Schedule(delay, fn), as one queue operation
  /// on the serial engine (EventQueue::Reschedule); a shard backend gets
  /// the two calls.
  EventId Reschedule(EventId id, SimDuration delay, EventFn fn) {
    if (backend_ != nullptr) {
      if (id != kInvalidEventId) backend_->Cancel(id);
      return backend_->Schedule(backend_->Now() + delay, std::move(fn));
    }
    return events_.Reschedule(id, clock_ + delay, std::move(fn));
  }

  const EventQueue& events() const { return events_; }
  const PacketArena& packet_arena() const { return arena_; }

  // --- Shard backend (space-parallel PDES) ---------------------------------

  /// Installs (or, with nullptr, removes) a shard backend. Must happen
  /// before any event is scheduled: the serial queue has to be empty and
  /// the clock at zero, because pending state cannot migrate engines.
  void InstallShardBackend(ShardBackend* backend);
  ShardBackend* shard_backend() const { return backend_; }

  /// Mutable base arena for the backend's coordinator context (packets
  /// made outside any region). The serial path uses it directly.
  PacketArena& mutable_packet_arena() { return arena_; }

  /// Delivers a datagram to `receiver` exactly like the tail of frame
  /// delivery (down-check, drop accounting, agent OnDatagram). Public so
  /// a shard backend can inject deliveries that crossed regions as byte
  /// copies.
  void InjectDelivery(NodeId receiver, VifIndex vif, Ipv4Address link_src,
                      Ipv4Address link_dst,
                      std::span<const std::uint8_t> datagram);

  /// Forwards to the backend's ExchangeAffinity; -1 no-op without one.
  std::int32_t ExchangeAffinity(std::int32_t node) {
    return backend_ != nullptr ? backend_->ExchangeAffinity(node) : -1;
  }

  /// Runs events until `until` (inclusive); leaves later events queued.
  void RunUntil(SimTime until);

  /// Runs until the event queue drains or `max_events` have executed.
  /// Protocol keepalive timers re-arm forever, so most tests use RunUntil.
  void RunUntilIdle(std::size_t max_events = 1'000'000);

 private:
  void DeliverFrame(NodeId receiver, VifIndex vif, Ipv4Address link_src,
                    Ipv4Address link_dst, const PacketRef& datagram);

  /// Receiver fan-out shared by both SendDatagram overloads: per-receiver
  /// fault application and delivery scheduling (or one batched event).
  bool FanOut(NodeId node, VifIndex vif, const Interface& out,
              SubnetRecord& s, SubnetCounters& counters,
              Ipv4Address link_dst, const PacketRef& shared);

  /// Bumps the topology epoch and journals the scoped change.
  void RecordTopologyChange(TopologyChange::Kind kind, SubnetId subnet,
                            NodeId node, bool up);

  /// Counter sink for `s` in the current execution context.
  SubnetCounters& counters_for(SubnetRecord& s) {
    return backend_ != nullptr ? backend_->CountersFor(s) : s.counters;
  }
  /// Packet arena of the current execution context.
  PacketArena& active_arena() {
    return backend_ != nullptr ? backend_->ContextArena() : arena_;
  }

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
  int trace_pid_ = 1;
  std::uint64_t seed_ = 1;
  ShardBackend* backend_ = nullptr;
  DeliveryMode delivery_mode_ = DeliveryMode::kBatched;
};

/// RAII node-affinity marker for code that acts *on behalf of* a node
/// from outside any event — agent Start() hooks, host join/leave/send
/// helpers driven by a test or bench. Under a shard backend the scope
/// pins scheduling, RNG draws, counters, and packets to the node's
/// region, so the work is attributed exactly as if the node itself had
/// executed it; without a backend it is a no-op.
class AffinityScope {
 public:
  AffinityScope(Simulator& sim, NodeId node)
      : sim_(&sim), prev_(sim.ExchangeAffinity(node.value())) {}
  ~AffinityScope() { sim_->ExchangeAffinity(prev_); }

  AffinityScope(const AffinityScope&) = delete;
  AffinityScope& operator=(const AffinityScope&) = delete;

 private:
  Simulator* sim_;
  std::int32_t prev_;
};

}  // namespace cbt::netsim
