// Unicast routing substrate.
//
// CBT deliberately builds on whatever unicast routing exists ("the join is
// sent to the next-hop on the path to the target core"). We model an
// idealized link-state protocol: every router computes Dijkstra shortest
// paths over the live topology, and tables refresh automatically when a
// link/node goes up or down (the simulator bumps a topology epoch).
//
// Two behaviours matter to CBT and are modelled explicitly:
//  * deterministic tie-breaking (lowest next-hop address) — the spec's
//    Figure-1 narrative depends on R2 beating R5;
//  * static next-hop overrides, used by tests to create the transient
//    routing loop of Figure 5 and transient asymmetry.
//
// Two kinds of state answer the queries (see docs/PROTOCOL.md "Unicast
// routing & invalidation model"):
//  * destination trees serve NextHopToward, the only query CBT's routers
//    make: one reverse Dijkstra per destination subnet, rooted at the
//    subnet's live router attachments, gives every node its distance to
//    the subnet, and a node's next hop is the lowest neighbour address
//    among the neighbours on some shortest path — the same answer the
//    per-source tie-break gives. A tree is built by the first query
//    toward its subnet and dropped by the next topology change;
//  * per-source tables serve Lookup, Distance, PathDelay, Path and
//    TableVersion — the baselines, core selection and the tree-quality
//    oracle — because only a forward Dijkstra carries hop counts, delays
//    and predecessors.
//
// Per-source recompute model: tables are *lazy* — a topology change marks
// them stale via the simulator's scoped change journal, and a source's
// Dijkstra only runs when that source is actually queried. A table holds
// routes to nodes only; the route to a subnet (its "tail": the best live
// attachment point) is computed on the first Lookup of that subnet and
// memoized. A table whose shortest-path tree provably avoids every
// changed subnet is kept warm (only its memoized tails to the changed
// subnets are refreshed in place); anything the conservative check
// cannot rule out is recomputed. Every answer is bit-for-bit what a
// freshly built manager computes from scratch, and NextHopToward agrees
// with a fresh Lookup up to the cost's summation order (the tests in
// tests/routing/route_manager_lazy_test.cc check queries against one),
// while a flap touching one region no longer recomputes every router's
// table.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <type_traits>

#include "common/types.h"
#include "netsim/simulator.h"
#include "obs/fields.h"

namespace cbt::routing {

/// A resolved next hop for some destination.
struct Route {
  VifIndex vif = kInvalidVif;
  /// Link-level next hop; equals the final destination when direct.
  Ipv4Address next_hop;
  double cost = 0.0;
  int hop_count = 0;        // router-to-router hops (0 = directly attached)
  SimDuration delay = 0;    // summed subnet delays along the chosen path
};

/// A next hop toward some destination, read off a destination tree: no
/// path metrics beyond the cost (see NextHopToward).
struct NextHop {
  VifIndex vif = kInvalidVif;
  /// Link-level next hop; equals the final destination when direct.
  Ipv4Address next_hop;
  double cost = 0.0;
  /// The destination's subnet is attached to the querying node (what
  /// Route reports as hop_count 0).
  bool direct = false;
};

class RouteManager {
 public:
  /// Work counters, reported by the benchmark driver and used by the
  /// invalidation tests.
  struct Stats {
    std::uint64_t tables_computed = 0;   // per-source Dijkstra runs
    std::uint64_t dest_trees_computed = 0;  // reverse per-subnet Dijkstras
    std::uint64_t tables_dirtied = 0;    // tables invalidated by changes
    std::uint64_t tables_kept_warm = 0;  // verified-unaffected, patched
    std::uint64_t full_invalidations = 0;
    std::uint64_t lookups = 0;  // Lookup and NextHopToward calls
    std::uint64_t lpm_cache_hits = 0;
    std::uint64_t lpm_index_rebuilds = 0;
  };

  explicit RouteManager(netsim::Simulator& sim) : sim_(&sim) {}

  /// Next hop from router `from` toward address `dest` (host or router).
  /// nullopt when dest is unreachable or not covered by any known subnet.
  std::optional<Route> Lookup(NodeId from, Ipv4Address dest);

  /// Lookup's vif, next hop and cost (within floating-point summation
  /// order), read off `dest`'s destination tree instead of `from`'s
  /// per-source table: static overrides and the directly-attached case
  /// are answered exactly as Lookup does, anything else in O(1) once the
  /// subnet's tree exists.
  std::optional<NextHop> NextHopToward(NodeId from, Ipv4Address dest);

  /// True when `addr` is on a subnet directly attached to `node` (and the
  /// attachment is up).
  bool IsDirectlyAttached(NodeId node, Ipv4Address addr);

  /// Forces (node, destination-subnet) to resolve to the given next hop;
  /// survives recomputes until cleared. Used to build the Figure-5 loop.
  /// An override whose vif or subnet is down is skipped at lookup time
  /// (the computed route wins) and revives when the path comes back.
  void SetStaticNextHop(NodeId node, SubnetId dest_subnet, VifIndex vif,
                        Ipv4Address next_hop);
  void ClearStaticNextHops() { overrides_.clear(); }

  /// Shortest-path router cost between two nodes (for analysis/oracles);
  /// infinity if disconnected.
  double Distance(NodeId from, NodeId to);

  /// Summed link delay along the chosen shortest path between two nodes.
  SimDuration PathDelay(NodeId from, NodeId to);

  /// Node sequence (inclusive of both endpoints) of the chosen shortest
  /// path; empty when disconnected.
  std::vector<NodeId> Path(NodeId from, NodeId to);

  /// Longest-prefix match of `dest` against the known subnets (up or
  /// down; liveness is the routing table's concern, not addressing's).
  std::optional<SubnetId> ResolveSubnet(Ipv4Address dest);

  /// Monotone counter bumped every time `source`'s table is recomputed;
  /// stable while the table is verified-unaffected. Consumers caching
  /// path-derived state (e.g. the MOSPF per-(S,G) tree cache) key on
  /// this instead of the raw topology epoch, inheriting the scoped
  /// invalidation for free. Freshens the table as a side effect.
  std::uint64_t TableVersion(NodeId source);

  /// Forces recomputation on next query regardless of topology epoch.
  void Invalidate();

  const Stats& stats() const { return stats_; }
  Stats& mutable_stats() { return stats_; }
  void ResetStats() { obs::ResetStats(stats_); }

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

 private:
  struct NodeRoutes {
    // Memo of the subnet tails looked up from this node, sorted by subnet
    // id: best route from this node to that subnet. Cleared by every
    // recompute; a warm patch refreshes the changed subnets' entries.
    std::vector<std::pair<SubnetId, Route>> to_subnet;
    // Indexed by node id: best route/cost to that node's primary address.
    std::vector<Route> to_node;
    std::vector<NodeId> predecessor;  // for Path()
    // Bitset over subnet ids: subnets traversed by some chosen shortest
    // path out of this source. A change on an unused subnet cannot alter
    // to_node/predecessor (see ApplyScopedChanges).
    std::vector<std::uint64_t> used_subnets;
    std::uint64_t version = 0;
    bool valid = false;

    bool Uses(SubnetId s) const {
      const auto i = static_cast<std::size_t>(s.value());
      return (i >> 6) < used_subnets.size() &&
             (used_subnets[i >> 6] >> (i & 63)) & 1u;
    }
  };

  /// Reverse shortest-path tree toward one subnet: per node (by id), the
  /// cost to the subnet's nearest live router attachment and the first
  /// hop on the way (cost infinity when unreachable).
  struct DestTree {
    struct Hop {  // 16 bytes: a tree holds one per node
      double cost = kInfinity;
      VifIndex vif = kInvalidVif;
      Ipv4Address next_hop;
    };
    std::uint64_t generation = 0;  // valid while == dest_generation_
    std::vector<Hop> hops;
  };

  /// Longest-prefix-match index: one bucket per distinct mask, longest
  /// (numerically largest contiguous) mask first, each sorted by network
  /// for binary search. Plus a direct-mapped address cache in front.
  struct LpmIndex {
    struct Bucket {
      std::uint32_t mask;
      // (network bits, subnet id), sorted; duplicates keep the lowest id,
      // as a first-wins linear scan would.
      std::vector<std::pair<std::uint32_t, std::int32_t>> prefixes;
    };
    std::vector<Bucket> buckets;
    std::size_t indexed_subnets = 0;
    std::uint64_t version = 0;  // bumped per rebuild; guards the cache
  };
  struct LpmCacheSlot {
    std::uint32_t addr = 0;
    std::int32_t subnet = -1;  // -1 = cached miss
    std::uint64_t version = 0;  // 0 = empty
  };

  /// Brings routing state in sync with the simulator's topology epoch:
  /// processes the scoped change journal, or invalidates everything on
  /// journal overflow or an entity-count change.
  void SyncTopology();

  /// Ensures `source`'s table is valid, running its Dijkstra if needed.
  NodeRoutes& Freshen(NodeId source);

  void ComputeFrom(NodeId source);

  /// Applies one batch of scoped changes to every valid table: tables
  /// that provably cannot be affected are patched in place; the rest are
  /// invalidated.
  void ApplyScopedChanges(std::span<const netsim::TopologyChange> changes);

  /// Conservative test: could bringing subnet `s` (back) up improve or
  /// re-tie any route in `table`? False only when provably not.
  bool UpMayImprove(const NodeRoutes& table, NodeId source, SubnetId s) const;

  /// Best route from `source` to subnet `s`, derived from the table's
  /// to_node routes and the subnet's current attachments: the closest
  /// live attachment point, lowest first-hop address on ties.
  Route SubnetTail(const NodeRoutes& table, NodeId source, SubnetId s) const;

  /// The memoized tail of `s` in `table`, computed on first use.
  Route MemoTail(NodeRoutes& table, NodeId source, SubnetId s);

  void InvalidateAllTables();

  /// `sid`'s destination tree for the current topology, built if needed.
  const DestTree& FreshDestTree(SubnetId sid);

  void ComputeDestTree(SubnetId sid, DestTree& tree);

  void RebuildLpmIndex();

  /// True when a static override's forwarding path is actually usable.
  bool OverrideLive(NodeId node, SubnetId dest_subnet,
                    const Route& route) const;

  static constexpr std::size_t kLpmCacheSize = 256;  // direct-mapped

  netsim::Simulator* sim_;
  std::uint64_t synced_epoch_ = 0;
  std::size_t synced_subnet_count_ = 0;
  bool ever_synced_ = false;
  /// Manager-wide monotone source of table versions; never reused, so a
  /// consumer's cached version can never alias across invalidations.
  std::uint64_t version_counter_ = 0;
  std::vector<NodeRoutes> tables_;  // indexed by node id
  // Trees of the subnets queried so far, sorted by subnet id (CBT queries
  // toward few subnets; an index over every subnet would cost more).
  std::vector<std::pair<SubnetId, DestTree>> dest_trees_;
  /// Bumped by every topology change SyncTopology sees: destination trees
  /// are valid for one topology, with no scoped invalidation.
  std::uint64_t dest_generation_ = 1;
  std::map<std::pair<NodeId, SubnetId>, Route> overrides_;
  LpmIndex lpm_;
  std::array<LpmCacheSlot, kLpmCacheSize> lpm_cache_{};
  Stats stats_;
};

/// obs reflection over the work counters (see obs/fields.h); binds them
/// under "cbt.routing.*" and powers the generic ResetStats.
template <typename Stats, typename Fn>
  requires std::is_same_v<std::remove_const_t<Stats>, RouteManager::Stats>
void ForEachStatsField(Stats& s, Fn&& fn) {
  using Tag = obs::FieldTag;
  fn("tables_computed", s.tables_computed, Tag::kNone);
  fn("dest_trees_computed", s.dest_trees_computed, Tag::kNone);
  fn("tables_dirtied", s.tables_dirtied, Tag::kNone);
  fn("tables_kept_warm", s.tables_kept_warm, Tag::kNone);
  fn("full_invalidations", s.full_invalidations, Tag::kNone);
  fn("lookups", s.lookups, Tag::kNone);
  fn("lpm_cache_hits", s.lpm_cache_hits, Tag::kNone);
  fn("lpm_index_rebuilds", s.lpm_index_rebuilds, Tag::kNone);
}

}  // namespace cbt::routing
