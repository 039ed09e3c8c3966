// PIM-SM-shape unidirectional RP-tree router — the third contrast scheme.
//
// The CBT spec shares its core-management story with "PIM-Sparse Mode"
// ([10]; authors' note) but differs in one structural decision: CBT's
// shared tree is *bidirectional* (any on-tree router forwards up and
// down), while PIM-SM's RP tree is *unidirectional* — data flows only
// from the RP downward, and senders reach the RP by encapsulated
// "register" unicasts. This router models exactly that shape so the
// benchmarks can contrast the two shared-tree designs in protocol form
// (the oracle versions live in analysis/tree_metrics.h).
//
// Modelled behaviour:
//  * explicit (*,G) joins toward the RP, hop-by-hop, refreshed
//    periodically (PIM joins are soft state, no acks) and expired when
//    refreshes stop;
//  * prunes on leave (sent upstream when the last downstream goes);
//  * register path: the sender's DR encapsulates data to the RP (we
//    reuse the generic encapsulation header), which decapsulates and
//    floods the tree downward;
//  * strictly unidirectional forwarding: accept from the RPF interface
//    toward the RP only, send to downstream interfaces + member LANs.
//
// Omitted (documented): register-stop and the SPT switchover — the
// comparison targets the pure shared-tree phase.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "igmp/router_igmp.h"
#include "netsim/simulator.h"
#include "netsim/timer.h"
#include "obs/fields.h"
#include "packet/encap.h"
#include "routing/route_manager.h"

namespace cbt::baselines {

constexpr std::uint16_t kRpTreePort = 7781;

struct RpTreeConfig {
  /// Join refresh period (PIM default 60s) and holdtime (3.5x).
  SimDuration join_refresh_interval = 60 * kSecond;
  SimDuration join_holdtime = 210 * kSecond;
};

struct RpTreeStats {
  std::uint64_t joins_sent = 0;
  std::uint64_t joins_received = 0;
  std::uint64_t prunes_sent = 0;
  std::uint64_t prunes_received = 0;
  std::uint64_t registers_sent = 0;
  std::uint64_t registers_relayed = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered_lan = 0;
  std::uint64_t data_dropped_off_tree = 0;
  std::uint64_t control_bytes_sent = 0;

  /// Historical rollup: joins + prunes only (registers were never
  /// counted; the kControlSent tags below pin that).
  std::uint64_t ControlMessagesSent() const {
    return obs::SumTagged(*this, obs::FieldTag::kControlSent);
  }

  void Reset() { obs::ResetStats(*this); }
};

/// obs reflection (see obs/fields.h).
template <typename Stats, typename Fn>
  requires std::is_same_v<std::remove_const_t<Stats>, RpTreeStats>
void ForEachStatsField(Stats& s, Fn&& fn) {
  using Tag = obs::FieldTag;
  fn("joins_sent", s.joins_sent, Tag::kControlSent);
  fn("joins_received", s.joins_received, Tag::kNone);
  fn("prunes_sent", s.prunes_sent, Tag::kControlSent);
  fn("prunes_received", s.prunes_received, Tag::kNone);
  fn("registers_sent", s.registers_sent, Tag::kNone);
  fn("registers_relayed", s.registers_relayed, Tag::kNone);
  fn("data_forwarded", s.data_forwarded, Tag::kNone);
  fn("data_delivered_lan", s.data_delivered_lan, Tag::kNone);
  fn("data_dropped_off_tree", s.data_dropped_off_tree, Tag::kNone);
  fn("control_bytes_sent", s.control_bytes_sent, Tag::kNone);
}

/// Join/prune message (UDP 7781).
struct RpTreeMessage {
  enum class Type : std::uint8_t { kJoin = 1, kPrune = 2 };
  Type type = Type::kJoin;
  Ipv4Address group;
  Ipv4Address rp;

  std::vector<std::uint8_t> Encode() const;
  static std::optional<RpTreeMessage> Decode(std::span<const std::uint8_t> b);
};

class RpTreeRouter : public netsim::NetworkAgent {
 public:
  /// `rp_of` maps groups to their RP address (the shared directory in
  /// the harness fills this role, like PIM's bootstrap/RP-set).
  using RpResolver = std::function<std::optional<Ipv4Address>(Ipv4Address)>;

  RpTreeRouter(netsim::Simulator& sim, NodeId self,
               routing::RouteManager& routes, RpResolver rp_of,
               RpTreeConfig config = {}, igmp::IgmpConfig igmp_config = {});

  void Start() override;
  void OnDatagram(VifIndex vif, Ipv4Address link_src, Ipv4Address link_dst,
                  std::span<const std::uint8_t> datagram) override;
  void ResetProtocolCounters() override { stats_.Reset(); }

  const RpTreeStats& stats() const { return stats_; }
  RpTreeStats& mutable_stats() { return stats_; }
  bool HasTreeState(Ipv4Address group) const { return entries_.contains(group); }
  std::size_t StateUnits() const;

 private:
  struct Downstream {
    Ipv4Address neighbor;
    VifIndex vif = kInvalidVif;
    netsim::Timer holdtimer;
  };

  struct Entry {
    bool am_rp = false;
    VifIndex upstream_vif = kInvalidVif;  // RPF toward the RP
    Ipv4Address upstream_neighbor;
    std::vector<std::unique_ptr<Downstream>> downstream;
    netsim::Timer refresh_timer;  // periodic upstream join refresh
    bool joined_upstream = false;
  };

  void HandleControl(VifIndex vif, const packet::Ipv4Header& ip,
                     const RpTreeMessage& msg);
  void HandleData(VifIndex vif, const packet::Ipv4Header& ip,
                  std::span<const std::uint8_t> datagram);
  /// `outer` is OnDatagram's parse of `datagram`.
  void HandleRegister(VifIndex vif, const packet::ParsedDatagram& outer,
                      std::span<const std::uint8_t> datagram);
  /// Ensures (*,G) state exists and the upstream join refresh runs.
  Entry& EnsureJoined(Ipv4Address group);
  void SendJoinUpstream(Ipv4Address group, Entry& entry);
  void MaybePrune(Ipv4Address group);
  void ForwardDown(const Entry& entry, VifIndex arrival_vif,
                   const packet::Ipv4Header& inner_ip,
                   std::span<const std::uint8_t> inner, Ipv4Address group);
  void SendMessage(VifIndex vif, Ipv4Address dst, const RpTreeMessage& msg);
  void OnMembershipChange(Ipv4Address group);

  netsim::Simulator* sim_;
  NodeId self_;
  routing::RouteManager* routes_;
  RpResolver rp_of_;
  RpTreeConfig config_;
  RpTreeStats stats_;
  igmp::RouterIgmp igmp_;
  std::map<Ipv4Address, std::unique_ptr<Entry>> entries_;
};

}  // namespace cbt::baselines
