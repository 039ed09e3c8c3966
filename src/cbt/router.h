// CbtRouter: a complete CBT multicast router per the protocol
// specification (draft-ietf-idmr-cbt-spec-03, with -02 fallbacks).
//
// Control plane (sections 2, 6, 8):
//  * D-DR duty — the router is D-DR on a subnet iff it is that subnet's
//    IGMP querier (section 2.3); the D-DR originates JOIN-REQUESTs when an
//    IGMP RP/Core-Report + membership report arrive for an unknown group;
//  * hop-by-hop JOIN-REQUEST / JOIN-ACK processing with transient
//    pending-join state, caching of joins received while pending, and
//    join-request retransmission (PEND-JOIN-INTERVAL);
//  * PROXY-ACK / G-DR handling (section 2.6) so a D-DR whose first hop is
//    on the member LAN keeps no group state;
//  * QUIT-REQUEST/QUIT-ACK teardown and FLUSH-TREE (section 2.7);
//  * CBT-ECHO keepalives, child expiry, parent-failure reconnection
//    cycling through the core list (section 6.1), optional aggregation;
//  * core and router restart behaviour (section 6.2) — a router learns it
//    is a core by receiving a join that targets it; non-primary cores
//    rejoin the primary;
//  * REJOIN-ACTIVE → REJOIN-NACTIVE loop detection (section 6.3).
//
// Data plane (sections 4, 5, 7):
//  * native-mode forwarding over tree interfaces with the valid-on-tree-
//    interface acceptance check;
//  * CBT-mode encapsulation (Figure 3) with CBT-header TTL decrement,
//    CBT unicast vs CBT multicast per child fan-out, and the on-tree bit
//    (0x00→0xff) data-loop suppression of section 7;
//  * member-LAN delivery as plain IP multicast (inner TTL forced to 1 in
//    CBT mode) gated on DR-ship to avoid LAN duplicates;
//  * non-member sending (sections 5.1/5.3): the D-DR encapsulates and
//    unicasts toward the group's core, any on-tree router intercepts.
//
// Deviations from the (ambiguous) draft are noted inline and in DESIGN.md.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cbt/config.h"
#include "cbt/fib.h"
#include "cbt/flow_cache.h"
#include "cbt/group_directory.h"
#include "cbt/stats.h"
#include "cbt/tunnel_config.h"
#include "common/cycle_clock.h"
#include "igmp/router_igmp.h"
#include "netsim/simulator.h"
#include "netsim/timer.h"
#include "packet/encap.h"
#include "routing/route_manager.h"

namespace cbt::core {

class CbtRouter : public netsim::NetworkAgent {
 public:
  /// Experiment hooks; all optional.
  struct Callbacks {
    /// This router, as D-DR, completed a join for a locally-triggered
    /// membership (normal ack, proxy ack, or instant when already
    /// on-tree). Fired once per transition onto the tree.
    std::function<void(Ipv4Address group)> on_group_established;
    /// Parent declared unreachable (echo timeout).
    std::function<void(Ipv4Address group)> on_parent_lost;
    /// Reconnect finished (re-acked onto the tree).
    std::function<void(Ipv4Address group)> on_reconnected;
    /// Own REJOIN-NACTIVE returned: transient loop broken with a quit.
    std::function<void(Ipv4Address group)> on_loop_detected;
  };

  CbtRouter(netsim::Simulator& sim, NodeId self,
            routing::RouteManager& routes, const GroupDirectory& directory,
            CbtConfig config = {}, igmp::IgmpConfig igmp_config = {});

  // --- NetworkAgent ---------------------------------------------------------
  void Start() override;
  void OnDatagram(VifIndex vif, Ipv4Address link_src, Ipv4Address link_dst,
                  std::span<const std::uint8_t> datagram) override;
  void ResetProtocolCounters() override {
    stats_.Reset();
    // The occupancy gauge describes current cache state, not an interval;
    // it survives a counter reset.
    stats_.dataplane_cache_occupancy = flow_cache_.Occupancy();
  }

  // --- Introspection (tests & experiments) -----------------------------------
  NodeId id() const { return self_; }
  const Fib& fib() const { return fib_; }
  const RouterStats& stats() const { return stats_; }
  RouterStats& mutable_stats() { return stats_; }

  /// Repoints this router at another route manager. Used by
  /// CbtDomain::ShardRoutes so each PDES region's routers share a
  /// region-local manager (RouteManager is single-threaded state).
  void set_routes(routing::RouteManager* routes) { routes_ = routes; }
  const igmp::RouterIgmp& igmp() const { return igmp_; }
  const CbtConfig& config() const { return config_; }

  bool IsOnTree(Ipv4Address group) const { return fib_.Find(group) != nullptr; }
  bool IsPending(Ipv4Address group) const { return pending_.contains(group); }
  /// True when this router declined FIB state after a proxy-ack (2.6).
  bool JoinedViaGdr(Ipv4Address group) const {
    return proxied_groups_.contains(group);
  }
  /// True when this router granted a proxy-ack and is group DR for the
  /// subnet of `vif`.
  bool IsGdr(Ipv4Address group, VifIndex vif) const;

  bool OwnsAddress(Ipv4Address addr) const;

  /// True if this router is the group's DR on the vif's subnet (IGMP
  /// querier D-DR, or proxy-ack G-DR) — the role that forwards data on
  /// and off that subnet.
  bool IsSubnetDr(Ipv4Address group, VifIndex vif) const;

  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  /// Section 5.2 virtual-topology configuration: per-interface modes,
  /// tunnels, and ranked interfaces per core. When a ranking exists for a
  /// join's target core, it replaces the unicast routing lookup.
  TunnelConfig& tunnel_config() { return tunnels_; }
  const TunnelConfig& tunnel_config() const { return tunnels_; }

  /// Force-join a group (bypasses IGMP; used by tests and by cores that
  /// should pre-build the backbone).
  ///
  /// This and the other operational hooks below act on behalf of the
  /// router from outside its events, so each pins the work to the
  /// router's PDES region (netsim::AffinityScope).
  void InitiateJoin(Ipv4Address group, std::vector<Ipv4Address> cores,
                    std::size_t target_index = 0);

  /// Operational hook: abandon the current parent and re-join (the same
  /// path a CBT-ECHO timeout takes, section 6.1). Used by management
  /// tooling and the loop-detection tests to force a re-configuration.
  void TriggerReconnect(Ipv4Address group) {
    netsim::AffinityScope affinity(*sim_, self_);
    StartReconnect(group);
  }

  /// Operational hook: run the soft-state maintenance pass (directory
  /// reconciliation + quit eligibility) for one group now instead of
  /// waiting for the next iff scan. The core migrator uses this to make a
  /// published core-list replacement take effect promptly.
  void RunQuitCheck(Ipv4Address group) {
    netsim::AffinityScope affinity(*sim_, self_);
    QuitCheck(group);
  }

  /// Operational hook: drop all protocol state as if the router process
  /// restarted (section 6.2). IGMP/odometer counters survive; the tree
  /// state does not — a core re-learns its role from the next join.
  void SimulateRestart();

  /// Full crash model (used by the chaos subsystem): like
  /// SimulateRestart() but also cancels every running timer, forgets IGMP
  /// state, and silences the router until Restart(). Pair with
  /// Simulator::SetNodeUp(node, false) so frames in flight are dropped.
  void Crash();

  /// Brings a crashed router back: re-runs the Start() sequence so it
  /// re-contests IGMP querier duty, re-learns memberships, and re-joins
  /// trees through the normal protocol machinery (section 6.2).
  void Restart();

  /// True between Crash() and Restart().
  bool IsCrashed() const { return !alive_; }

  /// Mutable FIB access for management tooling and invariant tests
  /// (deliberate corruption to exercise the auditor).
  Fib& mutable_fib() { return fib_; }

  /// Debug oracle for the data-plane flow cache: recomputes every cached
  /// decision that would currently be served as a hit and compares it to
  /// the stored one. Returns false iff some slot is stale — i.e. state
  /// changed without the matching generation/epoch bump (the bug class
  /// the generation scheme exists to prevent). Tests corrupt state via
  /// mutable_fib() without Touch() to prove this trips.
  bool FlowCacheCoherent() const;

  /// Resolves the arrival-invariant forwarding decision for `key` against
  /// `entry` and this router's IGMP/DR/tunnel state: the one statement of
  /// the section 4/5 forwarding rules, shared by the slow path (every
  /// packet), the fast path (cache misses) and FlowCacheCoherent().
  FlowDecision BuildFlowDecision(const FibEntry& entry,
                                 const FlowKey& key) const;

 private:
  struct DownstreamRequester {
    VifIndex vif = kInvalidVif;
    Ipv4Address from;    // previous hop = prospective child
    Ipv4Address origin;  // join's origin field
    packet::JoinSubcode subcode = packet::JoinSubcode::kActiveJoin;
  };

  struct PendingJoin {
    Ipv4Address group;
    std::vector<Ipv4Address> cores;
    std::size_t core_index = 0;
    Ipv4Address target_core;
    VifIndex upstream_vif = kInvalidVif;
    Ipv4Address upstream_next_hop;
    packet::JoinSubcode subcode = packet::JoinSubcode::kActiveJoin;
    Ipv4Address origin;
    bool locally_originated = false;
    bool reconnect = false;
    /// A non-primary core's rejoin toward the primary (section 2.5).
    /// Never tears down children and retries with a long backoff.
    bool core_rejoin = false;
    /// Trace correlation id (NextTxn()) threading this join attempt's
    /// begin/end/outcome events; 0 for transit joins (no local span).
    std::uint64_t txn = 0;
    SimTime core_attempt_started = 0;
    std::vector<DownstreamRequester> requesters;
    /// REJOIN-NACTIVE probes that reached us while we had no parent to
    /// forward them over; re-emitted once our own join resolves (keeps
    /// section 6.3 loop detection alive across concurrent reconnects).
    std::vector<packet::ControlPacket> deferred_nactives;
    netsim::Timer rtx_timer;
    netsim::Timer expire_timer;
  };

  struct QuitState {
    Ipv4Address parent;
    VifIndex vif = kInvalidVif;
    int attempts = 0;
    /// Trace correlation id for this quit exchange's begin/end events.
    std::uint64_t txn = 0;
    netsim::Timer timer;
  };

  /// Outstanding CBT-CORE-PING toward the primary core (pre-rejoin
  /// reachability probe — the -02 mechanism; see packet/cbt_control.h).
  struct CorePingState {
    Ipv4Address target;
    int attempts = 0;
    netsim::Timer timer;
  };

  // --- Control-plane handlers. ---
  void HandleControl(VifIndex vif, const packet::Ipv4Header& ip,
                     const packet::ControlPacket& pkt);
  void HandleJoinRequest(VifIndex vif, const packet::Ipv4Header& ip,
                         const packet::ControlPacket& pkt);
  void HandleRejoinNactive(const packet::ControlPacket& pkt);
  void HandleJoinAck(VifIndex vif, const packet::Ipv4Header& ip,
                     const packet::ControlPacket& pkt);
  void HandleJoinNack(VifIndex vif, const packet::Ipv4Header& ip,
                      const packet::ControlPacket& pkt);
  void HandleQuitRequest(VifIndex vif, const packet::Ipv4Header& ip,
                         const packet::ControlPacket& pkt);
  void HandleQuitAck(const packet::ControlPacket& pkt);
  void HandleFlush(VifIndex vif, const packet::Ipv4Header& ip,
                   const packet::ControlPacket& pkt);
  void HandleEchoRequest(VifIndex vif, const packet::Ipv4Header& ip,
                         const packet::ControlPacket& pkt);
  void HandleEchoReply(VifIndex vif, const packet::Ipv4Header& ip,
                       const packet::ControlPacket& pkt);

  // --- Join machinery. ---
  /// D-DR origination (section 2.5) or reconnection (section 6.1).
  void StartJoin(Ipv4Address group, std::vector<Ipv4Address> cores,
                 std::size_t target_index, bool reconnect);
  /// Installs transient state for a join toward `target_core`. A transit
  /// join keeps txn 0 and counts as forwarded; a locally originated one
  /// takes NextTxn(), counts as originated and opens its "join" span.
  PendingJoin& AddPendingJoin(Ipv4Address group, std::vector<Ipv4Address> cores,
                              std::size_t core_index, Ipv4Address target_core,
                              packet::JoinSubcode subcode, Ipv4Address origin,
                              bool locally_originated, bool reconnect = false,
                              bool core_rejoin = false);
  /// Moves a pending join on to the next core of its list (section 6.1).
  void ElectNextCore(PendingJoin& pending);
  /// A local join elects its other cores in turn until one routes; a join
  /// that cannot (a transit join, or none routes) fails.
  void TryOtherCores(PendingJoin& pending);
  /// Forwards a pending join one hop toward its core and arms its timers.
  /// Returns false when unroutable (the caller fails or re-targets it).
  bool ForwardJoin(PendingJoin& pending);
  /// Sends the JOIN-REQUEST over `route`, which becomes its upstream hop.
  void SendJoin(PendingJoin& pending, const routing::NextHop& route);
  void RetransmitJoin(Ipv4Address group);
  void PendingJoinFailed(Ipv4Address group);
  /// Ends a local join's span with `outcome`, multicasts the section 2.5
  /// (-03) IGMP join-confirmation onto the member LANs (when enabled) and
  /// fires on_group_established.
  void JoinEstablished(Ipv4Address group, std::uint64_t txn,
                       const char* outcome);
  /// Terminates a join here: ack the sender and adopt it as child.
  void TerminateJoin(const DownstreamRequester& req,
                     const packet::ControlPacket& pkt, FibEntry& entry);
  /// Makes this router the entry's tree (sub)root (section 6.2) and
  /// emits core-anchored; the caller has set the entry's core list.
  void AnchorAsCore(FibEntry& entry, Ipv4Address affiliation, bool primary,
                    const char* detail = nullptr);
  /// Acks every requester cached on a pending join once it resolves.
  void AckRequesters(PendingJoin& pending, FibEntry& entry);
  /// Sends a JOIN-ACK (deciding normal vs proxy per section 2.6).
  void SendAckTo(const DownstreamRequester& req, FibEntry& entry);
  void SendNackTo(const DownstreamRequester& req, Ipv4Address group,
                  Ipv4Address target_core, std::span<const Ipv4Address> cores);
  /// Section 6.3 conversion; a no-op on a core or a detached router.
  void SendRejoinNactive(const FibEntry& entry, Ipv4Address origin,
                         std::span<const Ipv4Address> cores);
  /// True when acking `req` must use PROXY-ACK (section 2.6).
  bool ShouldProxyAck(const DownstreamRequester& req) const;
  /// Non-primary core joins the primary after learning core status.
  /// Probes reachability with CBT-CORE-PING first; the destructive
  /// (child-flushing) rejoin only starts once the primary answers. A
  /// no-op unless `entry` is a detached non-primary core.
  void CoreRejoinPrimary(FibEntry& entry);
  void SendCorePing(Ipv4Address group);
  void HandleCorePing(const packet::Ipv4Header& ip,
                      const packet::ControlPacket& pkt);
  void HandlePingReply(const packet::ControlPacket& pkt);

  // --- Teardown / maintenance. ---
  void QuitCheck(Ipv4Address group);
  /// Reconciles this router's core role for `group` against the external
  /// directory (demotes removed cores, promotes newly-listed ones). Runs
  /// at the head of every QuitCheck; no-op when the directory does not
  /// know the group or the role already matches.
  void ReconcileCoreRole(Ipv4Address group);
  /// The directory-assigned core index for this router's member LANs;
  /// nullopt unless the group has a registered partition and we serve at
  /// least one member LAN.
  std::optional<std::size_t> AssignedCoreIndex(Ipv4Address group);
  void SendQuit(Ipv4Address group);
  void SendQuitTo(Ipv4Address group, VifIndex vif, Ipv4Address parent);
  /// FLUSH-TREE to one child (suppressed under kSuppressFlush).
  void SendFlush(Ipv4Address group, VifIndex vif, Ipv4Address child);
  /// Flushes the group's children and drops all its state, first emitting
  /// "flushed" (by `parent`) or, with no `parent`, "teardown".
  void TearDown(Ipv4Address group, const char* detail,
                Ipv4Address parent = {});
  /// Section 2.7: re-joins after FLUSH-REJOIN-DELAY unless back on the
  /// tree by then. `cores` nullopt reads the directory when it fires.
  void ScheduleFlushRejoin(Ipv4Address group,
                           std::optional<std::vector<Ipv4Address>> cores);
  void RemoveGroupState(Ipv4Address group);
  void StartReconnect(Ipv4Address group);
  /// Per-group CBT-ECHO-REQUEST to the entry's parent.
  void SendEchoRequest(const FibEntry& entry, Ipv4Address origin);
  void OnEchoTick();
  void OnChildScan();
  void OnIffScan();
  /// IGMP callbacks.
  void OnMemberReport(VifIndex vif, Ipv4Address group, Ipv4Address reporter,
                      bool newly_present);
  void OnCoreReport(VifIndex vif, const packet::IgmpMessage& msg);
  void OnGroupExpired(VifIndex vif, Ipv4Address group);

  // --- Data plane. ---
  void HandleNativeData(VifIndex vif, const packet::Ipv4Header& ip,
                        std::span<const std::uint8_t> datagram);
  /// `outer` is OnDatagram's parse of `datagram`.
  void HandleCbtData(VifIndex vif, const packet::ParsedDatagram& outer,
                     std::span<const std::uint8_t> datagram);
  /// Forwards a data packet along the tree (both modes). `inner` is the
  /// original IP datagram; `cbt` carries CBT-mode header state when the
  /// packet arrived encapsulated (nullptr for native arrivals).
  /// Dispatches per CbtConfig::dataplane: the fast path serves the
  /// BuildFlowDecision result from the flow cache and shares one staged
  /// copy across outputs; the slow path recomputes it per packet and
  /// builds one copy per output. Both emit identical bytes.
  /// `prebuilt`, when non-null, is an arena packet already holding
  /// exactly `inner_datagram`'s bytes (the caller's DecrementTtlFast
  /// result); the fast path fans it out without another copy.
  void ForwardAlongTree(VifIndex arrival_vif, Ipv4Address arrival_src,
                        const FibEntry& entry,
                        const packet::Ipv4Header& inner_ip,
                        std::span<const std::uint8_t> inner_datagram,
                        const packet::CbtDataHeader* cbt,
                        const netsim::PacketRef* prebuilt = nullptr);
  /// Cache-off, copy-per-output path (the fast path's differential
  /// reference): BuildFlowDecision on every packet, then one freshly built
  /// vector per output (packet::WithTtl / BuildCbtModeDatagram) sent with
  /// SendDatagram.
  void ForwardAlongTreeSlow(VifIndex arrival_vif, Ipv4Address arrival_src,
                            const FibEntry& entry,
                            const packet::Ipv4Header& inner_ip,
                            std::span<const std::uint8_t> inner_datagram,
                            const packet::CbtDataHeader* cbt,
                            const packet::CbtDataHeader& hdr);
  /// Emits a resolved decision: encode-once per output variant, shared
  /// arena buffers across vifs, residual per-packet origin-LAN check.
  void ExecuteFlowDecision(const FlowDecision& decision, const FibEntry& entry,
                           const packet::Ipv4Header& inner_ip,
                           std::span<const std::uint8_t> inner_datagram,
                           const packet::CbtDataHeader* cbt,
                           const packet::CbtDataHeader& hdr,
                           const netsim::PacketRef* prebuilt);
  /// One-copy hop decrement: stages `datagram` in the arena and patches
  /// TTL + header checksum in place with packet::RewriteTtl (byte-
  /// identical to packet::WithTtl, minus the intermediate vector). Every
  /// caller passes a header ParseDatagram verified: the arriving datagram,
  /// the inner datagram ExtractCbtModeData parsed, or one of those after
  /// an earlier RewriteTtl.
  netsim::PacketRef MakeTtlPatchedPacket(
      std::span<const std::uint8_t> datagram, std::uint8_t ttl);
  /// Fast-path hop decrement: patches the arriving buffer in place when
  /// this hop is its sole owner, else stages one patched copy in `staged`.
  /// Returns the packet to send, or nullptr (a TTL drop) when TTL ran out.
  const netsim::PacketRef* DecrementTtlFast(
      const packet::Ipv4Header& ip, std::span<const std::uint8_t> datagram,
      netsim::PacketRef& staged);
  /// Combined flow-cache epoch: the sum of every monotonic counter
  /// covering non-FIB decision inputs (DR/proxy role, IGMP membership
  /// and querier state, tunnel modes). Sums of monotonic counters are
  /// monotonic, so a matching epoch proves none of them moved.
  std::uint64_t DataplaneEpoch() const {
    return dataplane_epoch_ + igmp_.state_version() + tunnels_.version();
  }
  /// Runs a data-plane handler, stage-timed when CbtConfig::time_dataplane
  /// is on. A branch-predicted compare when off.
  template <typename Stage>
  void TimeStage(Stage&& stage) {
    const std::uint64_t started = config_.time_dataplane ? CycleNow() : 0;
    stage();
    if (config_.time_dataplane) {
      stats_.dataplane_stage_cycles += CycleNow() - started;
      ++stats_.dataplane_stage_calls;
    }
  }
  /// Section 5.1/5.3 non-member sending: encapsulate toward a core.
  void RelayNonMemberData(VifIndex vif, const packet::Ipv4Header& ip,
                          std::span<const std::uint8_t> datagram);
  void ForwardUnicast(const packet::Ipv4Header& ip,
                      std::span<const std::uint8_t> datagram);

  // --- Send helpers. ---
  /// Next hop toward `target`: the section 5.2 interface ranking when one
  /// is configured for it, otherwise unicast routing's destination tree
  /// (RouteManager::NextHopToward).
  std::optional<routing::NextHop> ResolveToward(Ipv4Address target);
  /// Lowest-addressed neighbouring router on `vif` (tunnel-less ranked
  /// interfaces), or `target` itself when the vif's subnet contains it.
  Ipv4Address NeighborAddressOn(VifIndex vif, Ipv4Address target) const;
  /// Effective forwarding mode of an interface (per-vif override or the
  /// router-wide default from CbtConfig::native_mode).
  VifMode EffectiveMode(VifIndex vif) const;
  /// Next transaction correlation id for trace events, packed as
  /// (node << 32 | per-router counter). Advances whether or not tracing
  /// is active so ids are identical across trace levels (determinism
  /// contract: tracing is record-only).
  std::uint64_t NextTxn() {
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(self_.value()))
            << 32) |
           ++txn_counter_;
  }
  void SendControl(VifIndex vif, Ipv4Address link_dst, Ipv4Address ip_dst,
                   const packet::ControlPacket& pkt);
  /// Ends a "join" or "quit" span with its outcome.
  void EndSpan(const char* name, Ipv4Address group, std::uint64_t txn,
               const char* outcome);
  void TraceChildRemoved(Ipv4Address group, Ipv4Address child,
                         const char* reason);
  void SendIgmp(VifIndex vif, Ipv4Address dst, const packet::IgmpMessage& msg);
  Ipv4Address VifAddress(VifIndex vif) const;
  SubnetId VifSubnet(VifIndex vif) const;
  bool SubnetContains(VifIndex vif, Ipv4Address addr) const;
  /// The first of `cores` that is one of our addresses; unspecified if none.
  Ipv4Address OwnedCore(std::span<const Ipv4Address> cores) const;

  netsim::Simulator* sim_;
  NodeId self_;
  routing::RouteManager* routes_;
  const GroupDirectory* directory_;
  CbtConfig config_;
  Callbacks callbacks_;

  Ipv4Address primary_address_;
  Fib fib_;
  RouterStats stats_;
  igmp::RouterIgmp igmp_;
  TunnelConfig tunnels_;
  FlowCache flow_cache_;
  /// Router-local share of the flow-cache epoch: bumped whenever gdr_ or
  /// proxied_groups_ changes (IsSubnetDr inputs) and on crash/restart.
  std::uint64_t dataplane_epoch_ = 0;

  std::map<Ipv4Address, std::unique_ptr<PendingJoin>> pending_;
  std::map<Ipv4Address, std::unique_ptr<QuitState>> quitting_;
  std::map<Ipv4Address, std::unique_ptr<CorePingState>> core_pings_;
  /// Groups joined via a proxy-ack: we are D-DR but hold no FIB state.
  /// Soft state — the value is the last proxy-ack time; once stale the
  /// D-DR re-originates a join to confirm a G-DR still covers the LAN
  /// (the G-DR may have quit or died while we were none the wiser).
  std::map<Ipv4Address, SimTime> proxied_groups_;
  /// (group, subnet) pairs where we granted a proxy-ack and act as G-DR.
  std::set<std::pair<Ipv4Address, SubnetId>> gdr_;
  /// <group, cores> gleaned from RP/Core-Reports (section 2.5).
  struct LearnedCores {
    packet::CoreList cores;
    std::size_t target_index = 0;
  };
  std::map<Ipv4Address, LearnedCores> learned_cores_;

  netsim::Timer echo_timer_;
  netsim::Timer child_scan_timer_;
  netsim::Timer iff_scan_timer_;
  std::uint32_t txn_counter_ = 0;
  /// False while crashed: already-queued closures (flush-rejoin, loop
  /// retries) that survive the state wipe must not act for a dead router.
  bool alive_ = true;
};

}  // namespace cbt::core
