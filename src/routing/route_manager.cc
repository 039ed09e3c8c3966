#include "routing/route_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <tuple>

namespace cbt::routing {
namespace {

constexpr double kEps = 1e-9;

// Margin used by the warm-keep test. A table is only kept warm when every
// hypothetical new path is worse than the existing route by at least this
// much, so no ApproxEqual tie (kEps) can form even under floating-point
// summation noise. Widening it only dirties more tables — never wrong.
constexpr double kWarmMargin = 1e-6;

bool ApproxEqual(double a, double b) { return std::fabs(a - b) < kEps; }

// Position of `sid` in a vector sorted by subnet id (a table's tail memo,
// the destination trees): its entry, or where it would be inserted.
template <typename Memo>
auto SubnetSlot(Memo& memo, SubnetId sid) {
  return std::lower_bound(
      memo.begin(), memo.end(), sid,
      [](const auto& e, SubnetId x) { return e.first.value() < x.value(); });
}

}  // namespace

// ---------------------------------------------------------------------------
// Invalidation
// ---------------------------------------------------------------------------

void RouteManager::SyncTopology() {
  const std::uint64_t epoch = sim_->topology_epoch();
  const bool sized_ok = ever_synced_ && tables_.size() == sim_->node_count() &&
                        synced_subnet_count_ == sim_->subnet_count();
  if (sized_ok && epoch == synced_epoch_) return;

  ++dest_generation_;  // every destination tree is stale
  if (!sized_ok) {
    // Nodes or subnets were added (construction phase, no epoch bump):
    // table/bitset dimensions are stale, so start over.
    tables_.assign(sim_->node_count(), NodeRoutes{});
    dest_trees_.clear();
    synced_subnet_count_ = sim_->subnet_count();
    ++stats_.full_invalidations;
  } else if (const auto changes = sim_->ChangesSince(synced_epoch_)) {
    ApplyScopedChanges(*changes);
  } else {
    // Fell behind the bounded journal; assume everything changed.
    InvalidateAllTables();
  }
  synced_epoch_ = epoch;
  ever_synced_ = true;
}

void RouteManager::InvalidateAllTables() {
  ++stats_.full_invalidations;
  std::uint64_t dirtied = 0;
  for (NodeRoutes& t : tables_) {
    if (t.valid) {
      t.valid = false;
      ++stats_.tables_dirtied;
      ++dirtied;
    }
  }
  OBS_TRACE(sim_->trace(), .time = sim_->Now(),
            .kind = obs::TraceKind::kRouting, .name = "full-invalidation",
            .arg_a = dirtied,
            .arg_b = static_cast<std::uint64_t>(tables_.size()));
}

void RouteManager::Invalidate() {
  tables_.clear();
  ever_synced_ = false;
}

void RouteManager::ApplyScopedChanges(
    std::span<const netsim::TopologyChange> changes) {
  using netsim::TopologyChange;
  for (const TopologyChange& c : changes) {
    if (c.kind == TopologyChange::Kind::kAttach) {
      // Attachments alter addressing and subnet membership wholesale;
      // this is a construction-time event, precision isn't worth it.
      InvalidateAllTables();
      return;
    }
  }

  // Per change, the table must be recomputed ("dirties") unless we can
  // prove the change cannot alter its shortest-path tree:
  //  * a *down* on subnet S is invisible unless some chosen path
  //    traverses S (the used_subnets bitset);
  //  * an *up* on subnet S is invisible unless a path entering S could
  //    be as cheap as an existing route (UpMayImprove);
  //  * a node change scopes to every subnet the node attaches to, and a
  //    change to the table's own source always dirties it (the checks
  //    can't see through an all-infinity node-down table).
  // Warm survivors still need their memoized route *to* each scoped
  // subnet refreshed, since a tail's liveness is evaluated when it is
  // computed.
  const auto dirties = [&](const NodeRoutes& t, NodeId src, SubnetId s,
                           bool up) {
    return up ? UpMayImprove(t, src, s) : t.Uses(s);
  };

  std::vector<SubnetId> patch;
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    NodeRoutes& table = tables_[i];
    if (!table.valid) continue;
    const NodeId source(static_cast<std::int32_t>(i));
    bool dirty = false;
    patch.clear();
    for (const TopologyChange& c : changes) {
      if (c.kind == TopologyChange::Kind::kNodeState) {
        if (c.node == source) {
          dirty = true;
          break;
        }
        for (const netsim::Interface& iface : sim_->node(c.node).interfaces) {
          if (dirties(table, source, iface.subnet, c.up)) {
            dirty = true;
            break;
          }
          patch.push_back(iface.subnet);
        }
        if (dirty) break;
      } else {
        if (dirties(table, source, c.subnet, c.up)) {
          dirty = true;
          break;
        }
        patch.push_back(c.subnet);
      }
    }
    if (dirty) {
      table.valid = false;
      ++stats_.tables_dirtied;
      OBS_TRACE_VERBOSE(sim_->trace(), .time = sim_->Now(),
                        .kind = obs::TraceKind::kRouting,
                        .name = "table-dirtied", .node = source.value());
      continue;
    }
    for (const SubnetId s : patch) {
      const auto it = SubnetSlot(table.to_subnet, s);
      if (it != table.to_subnet.end() && it->first == s) {
        it->second = SubnetTail(table, source, s);
      }
    }
    ++stats_.tables_kept_warm;
  }
}

bool RouteManager::UpMayImprove(const NodeRoutes& table, NodeId source,
                                SubnetId sid) const {
  const netsim::SubnetRecord& s = sim_->subnet(sid);
  if (!s.up) return false;  // net effect of the batch: still down

  // Cheapest cost at which any path out of `source` can enter S, per the
  // table's (pre-change) distances. Prefixes of a hypothetical new path
  // use pre-change edges only, so pre-change distances bound them.
  double enter = kInfinity;
  for (const auto& [z, z_vif] : s.attachments) {
    const netsim::Interface& zi = sim_->interface(z, z_vif);
    if (!zi.up || !sim_->node(z).up) continue;
    if (z != source && !sim_->node(z).is_router) continue;  // no host transit
    const double base =
        table.to_node[static_cast<std::size_t>(z.value())].cost;
    if (base == kInfinity) continue;
    enter = std::min(enter, base + zi.cost);
  }
  if (enter == kInfinity) return false;  // S unreachable from this source

  // A new path crossing S lands on some live attachment at >= enter; if
  // every attachment already has a strictly cheaper route (with margin, so
  // no new tie-break candidates appear either), nothing can change.
  for (const auto& [w, w_vif] : s.attachments) {
    const netsim::Interface& wi = sim_->interface(w, w_vif);
    if (!wi.up || !sim_->node(w).up) continue;
    if (table.to_node[static_cast<std::size_t>(w.value())].cost >
        enter - kWarmMargin) {
      return true;
    }
  }
  return false;
}

Route RouteManager::SubnetTail(const NodeRoutes& table, NodeId source,
                               SubnetId sid) const {
  Route best{kInvalidVif, Ipv4Address{}, kInfinity, 0, 0};
  // A table computed while its source was down is all-infinity and offers
  // no direct-delivery routes either; keep it that way.
  if (table.to_node[static_cast<std::size_t>(source.value())].cost ==
      kInfinity) {
    return best;
  }
  const netsim::SubnetRecord& s = sim_->subnet(sid);
  if (!s.up) return best;
  for (const auto& [z, z_vif] : s.attachments) {
    const netsim::Interface& zi = sim_->interface(z, z_vif);
    if (!zi.up || !sim_->node(z).up) continue;
    if (z == source) {
      // Directly attached: cost 0, deliver straight onto the subnet.
      best = Route{z_vif, Ipv4Address{}, 0.0, 0, s.delay};
      break;
    }
    // Only routers forward from the subnet entry point onward.
    if (!sim_->node(z).is_router) continue;
    const Route& rz = table.to_node[static_cast<std::size_t>(z.value())];
    if (rz.cost == kInfinity) continue;
    const bool better = rz.cost + kEps < best.cost ||
                        (ApproxEqual(rz.cost, best.cost) &&
                         rz.next_hop.bits() < best.next_hop.bits());
    if (better) best = rz;
  }
  return best;
}

Route RouteManager::MemoTail(NodeRoutes& table, NodeId source,
                             SubnetId sid) {
  auto it = SubnetSlot(table.to_subnet, sid);
  if (it == table.to_subnet.end() || it->first != sid) {
    it = table.to_subnet.emplace(it, sid, SubnetTail(table, source, sid));
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Computation
// ---------------------------------------------------------------------------

RouteManager::NodeRoutes& RouteManager::Freshen(NodeId source) {
  SyncTopology();
  NodeRoutes& table = tables_.at(static_cast<std::size_t>(source.value()));
  if (!table.valid) ComputeFrom(source);
  return table;
}

void RouteManager::ComputeFrom(NodeId source) {
  OBS_TRACE_VERBOSE(sim_->trace(), .time = sim_->Now(),
                    .kind = obs::TraceKind::kRouting, .name = "table-computed",
                    .node = source.value());
  const std::size_t n = sim_->node_count();
  NodeRoutes& table = tables_[static_cast<std::size_t>(source.value())];
  table.to_node.assign(n, Route{kInvalidVif, Ipv4Address{}, kInfinity, 0, 0});
  table.to_subnet.clear();
  table.predecessor.assign(n, NodeId{});
  table.used_subnets.assign((sim_->subnet_count() + 63) / 64, 0);
  table.valid = true;
  table.version = ++version_counter_;
  ++stats_.tables_computed;

  if (!sim_->node(source).up) return;

  struct QueueEntry {
    double dist;
    std::uint32_t first_hop_addr;  // deterministic tie-break
    std::int32_t node;
    bool operator>(const QueueEntry& o) const {
      return std::tie(dist, first_hop_addr, node) >
             std::tie(o.dist, o.first_hop_addr, o.node);
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  std::vector<bool> done(n, false);
  // Subnet crossed by the chosen final edge into each node. The union over
  // settled nodes covers every subnet any chosen path traverses, because
  // each shortest-path-tree edge is the final edge into its head node.
  std::vector<SubnetId> via_subnet(n, SubnetId{});

  table.to_node[static_cast<std::size_t>(source.value())] =
      Route{kInvalidVif, Ipv4Address{}, 0.0, 0, 0};
  table.predecessor[static_cast<std::size_t>(source.value())] = source;
  pq.push(QueueEntry{0.0, 0, source.value()});

  while (!pq.empty()) {
    const QueueEntry top = pq.top();
    pq.pop();
    const auto u_idx = static_cast<std::size_t>(top.node);
    if (done[u_idx]) continue;
    done[u_idx] = true;

    const NodeId u(top.node);
    const netsim::NodeRecord& u_rec = sim_->node(u);
    // Hosts never transit traffic; only the source itself or routers expand.
    if (u != source && !u_rec.is_router) continue;
    if (!u_rec.up) continue;

    const Route& u_route = table.to_node[u_idx];

    for (const netsim::Interface& iface : u_rec.interfaces) {
      if (!iface.up) continue;
      const netsim::SubnetRecord& s = sim_->subnet(iface.subnet);
      if (!s.up) continue;
      for (const auto& [v, v_vif] : s.attachments) {
        if (v == u) continue;
        const netsim::Interface& in = sim_->interface(v, v_vif);
        if (!in.up || !sim_->node(v).up) continue;

        const double cand_dist = u_route.cost + iface.cost;
        Route cand;
        cand.cost = cand_dist;
        cand.hop_count = u_route.hop_count + 1;
        cand.delay = u_route.delay + s.delay;
        if (u == source) {
          cand.vif = iface.vif;
          cand.next_hop = in.address;
        } else {
          cand.vif = u_route.vif;
          cand.next_hop = u_route.next_hop;
        }

        const auto v_idx = static_cast<std::size_t>(v.value());
        Route& cur = table.to_node[v_idx];
        const bool better =
            cand_dist + kEps < cur.cost ||
            (ApproxEqual(cand_dist, cur.cost) &&
             cand.next_hop.bits() < cur.next_hop.bits());
        if (!done[v_idx] && better) {
          cur = cand;
          table.predecessor[v_idx] = u;
          via_subnet[v_idx] = iface.subnet;
          pq.push(QueueEntry{cand_dist, cand.next_hop.bits(), v.value()});
        }
      }
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (v == static_cast<std::size_t>(source.value())) continue;
    if (table.to_node[v].cost == kInfinity) continue;
    const auto si = static_cast<std::size_t>(via_subnet[v].value());
    table.used_subnets[si >> 6] |= std::uint64_t{1} << (si & 63);
  }
}

const RouteManager::DestTree& RouteManager::FreshDestTree(SubnetId sid) {
  SyncTopology();
  auto it = SubnetSlot(dest_trees_, sid);
  if (it == dest_trees_.end() || it->first != sid) {
    it = dest_trees_.emplace(it, sid, DestTree{});
  }
  DestTree& tree = it->second;
  if (tree.generation != dest_generation_) ComputeDestTree(sid, tree);
  return tree;
}

void RouteManager::ComputeDestTree(SubnetId sid, DestTree& tree) {
  OBS_TRACE_VERBOSE(sim_->trace(), .time = sim_->Now(),
                    .kind = obs::TraceKind::kRouting,
                    .name = "dest-tree-computed",
                    .arg_a = static_cast<std::uint64_t>(sid.value()));
  const std::size_t n = sim_->node_count();
  tree.hops.assign(n, DestTree::Hop{});
  tree.generation = dest_generation_;
  ++stats_.dest_trees_computed;

  // ComputeFrom run backwards: edges are walked from head to tail, so a
  // node's cost is to the subnet, and the relaxation that wins is the one
  // ComputeFrom would pick for that node's first hop. Roots are the
  // attachments SubnetTail accepts as a path's end: live routers.
  using QueueEntry = std::pair<double, std::int32_t>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  std::vector<bool> done(n, false);
  const netsim::SubnetRecord& s = sim_->subnet(sid);
  if (s.up) {
    for (const auto& [z, z_vif] : s.attachments) {
      const netsim::NodeRecord& z_rec = sim_->node(z);
      if (!sim_->interface(z, z_vif).up || !z_rec.up || !z_rec.is_router) {
        continue;
      }
      tree.hops[static_cast<std::size_t>(z.value())].cost = 0.0;
      pq.push(QueueEntry{0.0, z.value()});
    }
  }

  while (!pq.empty()) {
    const auto [dist, w_id] = pq.top();
    pq.pop();
    const auto w_idx = static_cast<std::size_t>(w_id);
    if (done[w_idx]) continue;
    done[w_idx] = true;

    const NodeId w(w_id);
    const netsim::NodeRecord& w_rec = sim_->node(w);
    // Hosts never transit: a host gets a route but extends none.
    if (!w_rec.is_router) continue;

    for (const netsim::Interface& in : w_rec.interfaces) {
      if (!in.up) continue;
      const netsim::SubnetRecord& link = sim_->subnet(in.subnet);
      if (!link.up) continue;
      for (const auto& [v, v_vif] : link.attachments) {
        if (v == w) continue;
        const auto v_idx = static_cast<std::size_t>(v.value());
        if (done[v_idx]) continue;
        const netsim::Interface& out = sim_->interface(v, v_vif);
        if (!out.up || !sim_->node(v).up) continue;

        // v's first hop is w's address on the shared link.
        const double cand = dist + out.cost;
        DestTree::Hop& cur = tree.hops[v_idx];
        const bool better = cand + kEps < cur.cost ||
                            (ApproxEqual(cand, cur.cost) &&
                             in.address.bits() < cur.next_hop.bits());
        if (better) {
          cur = DestTree::Hop{cand, out.vif, in.address};
          pq.push(QueueEntry{cand, v.value()});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Destination resolution (LPM)
// ---------------------------------------------------------------------------

void RouteManager::RebuildLpmIndex() {
  lpm_.buckets.clear();
  // Group by mask, longest (numerically largest) first — the same
  // preference order a linear scan applies via `mask > best_mask`, with
  // first-wins on exact duplicates.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::int32_t>> rows;
  rows.reserve(sim_->subnet_count());
  for (std::size_t si = 0; si < sim_->subnet_count(); ++si) {
    const SubnetAddress& a =
        sim_->subnet(SubnetId(static_cast<std::int32_t>(si))).address;
    rows.emplace_back(a.mask(), a.network().bits(),
                      static_cast<std::int32_t>(si));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    if (std::get<0>(x) != std::get<0>(y)) {
      return std::get<0>(x) > std::get<0>(y);  // mask descending
    }
    if (std::get<1>(x) != std::get<1>(y)) {
      return std::get<1>(x) < std::get<1>(y);  // network ascending
    }
    return std::get<2>(x) < std::get<2>(y);  // id ascending
  });
  for (const auto& [mask, network, id] : rows) {
    if (lpm_.buckets.empty() || lpm_.buckets.back().mask != mask) {
      lpm_.buckets.push_back(LpmIndex::Bucket{mask, {}});
    }
    auto& prefixes = lpm_.buckets.back().prefixes;
    if (!prefixes.empty() && prefixes.back().first == network) continue;
    prefixes.emplace_back(network, id);
  }
  lpm_.indexed_subnets = sim_->subnet_count();
  ++lpm_.version;
  ++stats_.lpm_index_rebuilds;
}

std::optional<SubnetId> RouteManager::ResolveSubnet(Ipv4Address dest) {
  if (lpm_.indexed_subnets != sim_->subnet_count()) RebuildLpmIndex();

  static_assert(kLpmCacheSize == 256, "slot hash yields an 8-bit index");
  const std::size_t slot =
      (dest.bits() * 2654435761u) >> 24;  // Fibonacci-ish scatter
  LpmCacheSlot& cached = lpm_cache_[slot];
  if (cached.version == lpm_.version && cached.addr == dest.bits()) {
    ++stats_.lpm_cache_hits;
    if (cached.subnet < 0) return std::nullopt;
    return SubnetId(cached.subnet);
  }

  std::int32_t found = -1;
  for (const auto& bucket : lpm_.buckets) {
    const std::uint32_t key = dest.bits() & bucket.mask;
    const auto it =
        std::lower_bound(bucket.prefixes.begin(), bucket.prefixes.end(),
                         std::pair<std::uint32_t, std::int32_t>{
                             key, std::numeric_limits<std::int32_t>::min()});
    if (it != bucket.prefixes.end() && it->first == key) {
      found = it->second;
      break;
    }
  }
  cached = LpmCacheSlot{dest.bits(), found, lpm_.version};
  if (found < 0) return std::nullopt;
  return SubnetId(found);
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

bool RouteManager::OverrideLive(NodeId node, SubnetId dest_subnet,
                                const Route& route) const {
  // The destination subnet itself must be up — a computed route to a dead
  // subnet returns nullopt, and an override must not outlive that.
  if (!sim_->subnet(dest_subnet).up) return false;
  const netsim::NodeRecord& n = sim_->node(node);
  if (!n.up) return false;
  if (route.vif < 0 ||
      static_cast<std::size_t>(route.vif) >= n.interfaces.size()) {
    return false;
  }
  const netsim::Interface& iface =
      n.interfaces[static_cast<std::size_t>(route.vif)];
  return iface.up && sim_->subnet(iface.subnet).up;
}

std::optional<Route> RouteManager::Lookup(NodeId from, Ipv4Address dest) {
  ++stats_.lookups;
  const auto subnet = ResolveSubnet(dest);
  if (!subnet) return std::nullopt;

  // A static override only applies while its forwarding path is usable;
  // a dead override falls through to the computed route (and revives if
  // the path comes back).
  if (const auto it = overrides_.find({from, *subnet});
      it != overrides_.end() && OverrideLive(from, *subnet, it->second)) {
    return it->second;
  }

  Route route = MemoTail(Freshen(from), from, *subnet);
  if (route.cost == kInfinity) return std::nullopt;
  if (route.next_hop.IsUnspecified()) {
    // Directly attached: the link-level next hop is the destination itself.
    route.next_hop = dest;
  }
  return route;
}

std::optional<NextHop> RouteManager::NextHopToward(NodeId from,
                                                   Ipv4Address dest) {
  ++stats_.lookups;
  const auto subnet = ResolveSubnet(dest);
  if (!subnet) return std::nullopt;

  if (const auto it = overrides_.find({from, *subnet});
      it != overrides_.end() && OverrideLive(from, *subnet, it->second)) {
    const Route& r = it->second;
    return NextHop{r.vif, r.next_hop, r.cost, false};
  }

  // Directly attached, as SubnetTail decides it: the first live interface
  // of a live node on the live subnet.
  const netsim::NodeRecord& node = sim_->node(from);
  if (node.up && sim_->subnet(*subnet).up) {
    for (const netsim::Interface& iface : node.interfaces) {
      if (iface.subnet == *subnet && iface.up) {
        return NextHop{iface.vif, dest, 0.0, true};
      }
    }
  }

  const DestTree::Hop& hop =
      FreshDestTree(*subnet).hops.at(static_cast<std::size_t>(from.value()));
  if (hop.cost == kInfinity) return std::nullopt;
  return NextHop{hop.vif, hop.next_hop, hop.cost, false};
}

bool RouteManager::IsDirectlyAttached(NodeId node, Ipv4Address addr) {
  for (const netsim::Interface& iface : sim_->node(node).interfaces) {
    if (!iface.up) continue;
    const netsim::SubnetRecord& s = sim_->subnet(iface.subnet);
    if (s.up && s.address.Contains(addr)) return true;
  }
  return false;
}

void RouteManager::SetStaticNextHop(NodeId node, SubnetId dest_subnet,
                                    VifIndex vif, Ipv4Address next_hop) {
  Route route;
  route.vif = vif;
  route.next_hop = next_hop;
  route.cost = 1.0;
  route.hop_count = 1;
  overrides_[{node, dest_subnet}] = route;
}

double RouteManager::Distance(NodeId from, NodeId to) {
  return Freshen(from).to_node.at(static_cast<std::size_t>(to.value())).cost;
}

SimDuration RouteManager::PathDelay(NodeId from, NodeId to) {
  return Freshen(from).to_node.at(static_cast<std::size_t>(to.value())).delay;
}

std::vector<NodeId> RouteManager::Path(NodeId from, NodeId to) {
  const NodeRoutes& table = Freshen(from);
  if (table.to_node.at(static_cast<std::size_t>(to.value())).cost ==
      kInfinity) {
    return {};
  }
  std::vector<NodeId> reversed;
  NodeId cur = to;
  while (cur != from) {
    reversed.push_back(cur);
    cur = table.predecessor.at(static_cast<std::size_t>(cur.value()));
    assert(cur.IsValid());
  }
  reversed.push_back(from);
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

std::uint64_t RouteManager::TableVersion(NodeId source) {
  return Freshen(source).version;
}

}  // namespace cbt::routing
