// MOSPF-style link-state multicast router (Moy [2]) — the second
// per-source-tree baseline the CBT paper positions itself against.
//
// Modelled behaviour:
//  * group-membership LSAs: whenever a router's local membership for a
//    group changes, it floods a sequence-numbered LSA domain-wide, so
//    EVERY router knows EVERY group's member routers — the "membership
//    knowledge everywhere" cost CBT avoids;
//  * on-demand per-(source, group) shortest-path-tree computation: the
//    first packet of (S,G) triggers a Dijkstra-derived tree rooted at the
//    source's attachment router; the result is cached (the O(S x G)
//    cache the CBT paper counts);
//  * forwarding: accept on the tree's RPF interface, forward to the
//    tree's child interfaces and member LANs.
//
// Simplifications (conservative, favouring MOSPF): topology LSAs ride the
// shared link-state substrate (no flooding cost charged); inter-area
// behaviour is out of scope.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "igmp/router_igmp.h"
#include "netsim/simulator.h"
#include "obs/fields.h"
#include "packet/encap.h"
#include "routing/route_manager.h"

namespace cbt::baselines {

constexpr std::uint16_t kMospfPort = 7780;

struct MospfStats {
  std::uint64_t lsas_originated = 0;
  std::uint64_t lsas_flooded = 0;  // re-flood transmissions
  std::uint64_t lsas_received = 0;
  std::uint64_t spt_computations = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered_lan = 0;
  std::uint64_t data_dropped_off_tree = 0;
  std::uint64_t data_dropped_ttl = 0;
  std::uint64_t control_bytes_sent = 0;

  /// Historical rollup: originations + re-floods (receptions and SPT
  /// work were never counted; the kControlSent tags below pin that).
  std::uint64_t ControlMessagesSent() const {
    return obs::SumTagged(*this, obs::FieldTag::kControlSent);
  }

  void Reset() { obs::ResetStats(*this); }
};

/// obs reflection (see obs/fields.h).
template <typename Stats, typename Fn>
  requires std::is_same_v<std::remove_const_t<Stats>, MospfStats>
void ForEachStatsField(Stats& s, Fn&& fn) {
  using Tag = obs::FieldTag;
  fn("lsas_originated", s.lsas_originated, Tag::kControlSent);
  fn("lsas_flooded", s.lsas_flooded, Tag::kControlSent);
  fn("lsas_received", s.lsas_received, Tag::kNone);
  fn("spt_computations", s.spt_computations, Tag::kNone);
  fn("data_forwarded", s.data_forwarded, Tag::kNone);
  fn("data_delivered_lan", s.data_delivered_lan, Tag::kNone);
  fn("data_dropped_off_tree", s.data_dropped_off_tree, Tag::kNone);
  fn("data_dropped_ttl", s.data_dropped_ttl, Tag::kNone);
  fn("control_bytes_sent", s.control_bytes_sent, Tag::kNone);
}

/// Wire format of a group-membership LSA (flooded over UDP 7780).
struct MembershipLsa {
  Ipv4Address advertising_router;  // primary address
  Ipv4Address group;
  std::uint32_t sequence = 0;
  bool member = false;

  std::vector<std::uint8_t> Encode() const;
  static std::optional<MembershipLsa> Decode(
      std::span<const std::uint8_t> bytes);
};

class MospfRouter : public netsim::NetworkAgent {
 public:
  MospfRouter(netsim::Simulator& sim, NodeId self,
              routing::RouteManager& routes,
              igmp::IgmpConfig igmp_config = {});

  void Start() override;
  void OnDatagram(VifIndex vif, Ipv4Address link_src, Ipv4Address link_dst,
                  std::span<const std::uint8_t> datagram) override;
  void ResetProtocolCounters() override { stats_.Reset(); }

  const MospfStats& stats() const { return stats_; }
  MospfStats& mutable_stats() { return stats_; }
  const igmp::RouterIgmp& igmp() const { return igmp_; }

  /// Member routers for `group` according to the LSDB (plus self).
  std::vector<NodeId> MemberRouters(Ipv4Address group) const;

  /// E1 state metric: LSDB entries (membership knowledge held everywhere)
  /// plus cached (S,G) forwarding entries.
  std::size_t StateUnits() const;

 private:
  using SourceGroup = std::pair<Ipv4Address, Ipv4Address>;

  /// Cached position of this router on the (S,G) tree. Valid while the
  /// tree's root and the root's routing-table version are unchanged —
  /// RouteManager::TableVersion only moves when the root's table actually
  /// recomputes, so scoped topology changes elsewhere keep this cache
  /// warm instead of invalidating it on every epoch tick.
  struct CacheEntry {
    bool on_tree = false;
    VifIndex upstream_vif = kInvalidVif;  // RPF side (invalid at the root)
    /// Next-hop child routers (per downstream neighbour) on the tree.
    std::vector<std::pair<VifIndex, Ipv4Address>> children;
    NodeId root;
    std::uint64_t route_version = 0;
    std::uint64_t membership_epoch = 0;
  };

  void HandleData(VifIndex vif, const packet::Ipv4Header& ip,
                  std::span<const std::uint8_t> datagram);
  void HandleLsa(VifIndex vif, Ipv4Address link_src, const MembershipLsa& lsa);
  void FloodLsa(const MembershipLsa& lsa, VifIndex arrival_vif);
  void OriginateLsa(Ipv4Address group, bool member);
  const CacheEntry& TreePosition(SourceGroup sg);
  NodeId AttachmentRouter(Ipv4Address source);

  netsim::Simulator* sim_;
  NodeId self_;
  routing::RouteManager* routes_;
  MospfStats stats_;
  igmp::RouterIgmp igmp_;
  /// LSDB: (router, group) -> {sequence, member}.
  std::map<std::pair<Ipv4Address, Ipv4Address>,
           std::pair<std::uint32_t, bool>>
      lsdb_;
  std::uint64_t membership_epoch_ = 0;
  std::uint32_t my_sequence_ = 0;
  std::map<SourceGroup, std::unique_ptr<CacheEntry>> cache_;
};

}  // namespace cbt::baselines
