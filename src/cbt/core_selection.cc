#include "cbt/core_selection.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cbt::core_selection {
namespace {

// Delay stand-in for an unreachable pair; far below SimDuration's max so
// sums and comparisons cannot overflow.
constexpr SimDuration kUnreachable =
    std::numeric_limits<SimDuration>::max() / 4;

SimDuration DelayOr(routing::RouteManager& routes, NodeId from, NodeId to,
                    SimDuration fallback) {
  if (routes.Distance(from, to) == routing::RouteManager::kInfinity) {
    return fallback;
  }
  return routes.PathDelay(from, to);
}

// ---------------------------------------------------------------------------
// The selection algorithms behind the strategies.
// ---------------------------------------------------------------------------

std::vector<NodeId> PickRandom(const std::vector<NodeId>& routers,
                               std::size_t k, Rng& rng) {
  assert(k <= routers.size());
  std::vector<NodeId> out;
  out.reserve(k);
  for (const std::size_t i : rng.SampleWithoutReplacement(routers.size(), k)) {
    out.push_back(routers[i]);
  }
  return out;
}

std::vector<NodeId> PickHighestDegree(const netsim::Simulator& sim,
                                      const std::vector<NodeId>& routers,
                                      std::size_t k) {
  assert(k <= routers.size());
  std::vector<NodeId> sorted = routers;
  std::stable_sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    const std::size_t da = sim.node(a).interfaces.size();
    const std::size_t db = sim.node(b).interfaces.size();
    if (da != db) return da > db;
    return a < b;
  });
  sorted.resize(k);
  return sorted;
}

std::vector<NodeId> PickCentre(routing::RouteManager& routes,
                               const std::vector<NodeId>& routers,
                               std::size_t k) {
  assert(k >= 1 && k <= routers.size());
  std::vector<NodeId> chosen;

  // First core: the 1-center (minimax distance).
  NodeId best = routers.front();
  double best_ecc = routing::RouteManager::kInfinity;
  for (const NodeId candidate : routers) {
    double ecc = 0.0;
    for (const NodeId other : routers) {
      ecc = std::max(ecc, routes.Distance(candidate, other));
    }
    if (ecc < best_ecc) {
      best_ecc = ecc;
      best = candidate;
    }
  }
  chosen.push_back(best);

  // Remaining cores: farthest-point heuristic for coverage.
  while (chosen.size() < k) {
    NodeId farthest = routers.front();
    double farthest_dist = -1.0;
    for (const NodeId candidate : routers) {
      if (std::find(chosen.begin(), chosen.end(), candidate) != chosen.end()) {
        continue;
      }
      double dist = routing::RouteManager::kInfinity;
      for (const NodeId c : chosen) {
        dist = std::min(dist, routes.Distance(candidate, c));
      }
      if (dist > farthest_dist && dist < routing::RouteManager::kInfinity) {
        farthest_dist = dist;
        farthest = candidate;
      }
    }
    chosen.push_back(farthest);
  }
  return chosen;
}

std::vector<NodeId> PickDelayCentre(routing::RouteManager& routes,
                                    const std::vector<NodeId>& routers,
                                    std::size_t k) {
  assert(k >= 1 && k <= routers.size());
  std::vector<NodeId> chosen;

  NodeId best = routers.front();
  SimDuration best_ecc = std::numeric_limits<SimDuration>::max();
  for (const NodeId candidate : routers) {
    SimDuration ecc = 0;
    for (const NodeId other : routers) {
      if (routes.Distance(candidate, other) ==
          routing::RouteManager::kInfinity) {
        ecc = std::numeric_limits<SimDuration>::max();
        break;
      }
      ecc = std::max(ecc, routes.PathDelay(candidate, other));
    }
    if (ecc < best_ecc) {
      best_ecc = ecc;
      best = candidate;
    }
  }
  chosen.push_back(best);

  while (chosen.size() < k) {
    NodeId farthest = routers.front();
    SimDuration farthest_delay = -1;
    for (const NodeId candidate : routers) {
      if (std::find(chosen.begin(), chosen.end(), candidate) != chosen.end()) {
        continue;
      }
      SimDuration delay = std::numeric_limits<SimDuration>::max();
      for (const NodeId c : chosen) {
        delay = std::min(delay, routes.PathDelay(candidate, c));
      }
      if (delay > farthest_delay &&
          delay != std::numeric_limits<SimDuration>::max()) {
        farthest_delay = delay;
        farthest = candidate;
      }
    }
    chosen.push_back(farthest);
  }
  return chosen;
}

std::vector<NodeId> RotateByGroupHash(const std::vector<NodeId>& candidates,
                                      Ipv4Address group) {
  assert(!candidates.empty());
  std::vector<NodeId> out = candidates;
  // Knuth multiplicative hash of the group address picks the primary.
  const std::size_t index =
      static_cast<std::size_t>((group.bits() * 2654435761u) >> 16) %
      out.size();
  std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(index),
              out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Shared multi-core helpers.
// ---------------------------------------------------------------------------

const std::vector<NodeId>& MembersOrRouters(const PlacementInput& in) {
  return in.member_routers.empty() ? in.routers : in.member_routers;
}

/// Wraps a core list into a Placement with nearest-core assignment (when
/// the input names member routers and routes are available).
Placement Finish(const PlacementInput& in, std::vector<NodeId> cores) {
  Placement p;
  p.cores = std::move(cores);
  if (!in.member_routers.empty() && in.routes != nullptr) {
    p.assignment = AssignNearest(*in.routes, p.cores, in.member_routers);
  }
  return p;
}

/// Reorders `cores` by descending served-member count (ties: lower id) so
/// the busiest cluster's core becomes the primary, and remaps the
/// assignment to match.
void OrderByClusterSize(const std::vector<NodeId>& members,
                        routing::RouteManager& routes, Placement& p) {
  if (p.cores.size() < 2) return;
  std::vector<std::size_t> assignment =
      p.assignment.empty() ? AssignNearest(routes, p.cores, members)
                           : p.assignment;
  std::vector<std::size_t> count(p.cores.size(), 0);
  for (const std::size_t a : assignment) ++count[a];
  std::vector<std::size_t> order(p.cores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (count[a] != count[b]) return count[a] > count[b];
                     return p.cores[a] < p.cores[b];
                   });
  std::vector<std::size_t> rank(p.cores.size());
  std::vector<NodeId> cores(p.cores.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    rank[order[pos]] = pos;
    cores[pos] = p.cores[order[pos]];
  }
  p.cores = std::move(cores);
  if (!p.assignment.empty()) {
    for (std::size_t& a : p.assignment) a = rank[a];
  }
}

// ---------------------------------------------------------------------------
// Locality strategy (arXiv 1606.04928): cluster the member routers by
// unicast delay, one core per cluster.
// ---------------------------------------------------------------------------

std::vector<NodeId> PickDelayCentreOverMembers(
    routing::RouteManager& routes, const std::vector<NodeId>& members,
    std::size_t k) {
  std::vector<NodeId> seeds;
  NodeId best = members.front();
  SimDuration best_ecc = std::numeric_limits<SimDuration>::max();
  for (const NodeId candidate : members) {
    SimDuration ecc = 0;
    for (const NodeId other : members) {
      ecc = std::max(ecc, DelayOr(routes, candidate, other, kUnreachable));
    }
    if (ecc < best_ecc || (ecc == best_ecc && candidate < best)) {
      best_ecc = ecc;
      best = candidate;
    }
  }
  seeds.push_back(best);
  while (seeds.size() < k) {
    NodeId farthest = NodeId{0};
    SimDuration farthest_delay = -1;
    for (const NodeId candidate : members) {
      if (std::find(seeds.begin(), seeds.end(), candidate) != seeds.end()) {
        continue;
      }
      SimDuration delay = std::numeric_limits<SimDuration>::max();
      for (const NodeId s : seeds) {
        delay = std::min(delay, DelayOr(routes, candidate, s, kUnreachable));
      }
      if (delay > farthest_delay) {
        farthest_delay = delay;
        farthest = candidate;
      }
    }
    if (farthest_delay < 0) break;  // fewer distinct members than k
    seeds.push_back(farthest);
  }
  return seeds;
}

Placement PlaceLocality(const PlacementInput& in, std::size_t k) {
  assert(in.routes != nullptr);
  assert(k >= 1 && k <= in.routers.size());
  routing::RouteManager& routes = *in.routes;
  const std::vector<NodeId>& members = MembersOrRouters(in);

  // Seed clusters with a delay k-center over the members: the first seed
  // minimizes member eccentricity, the rest maximize delay to the seeds.
  std::vector<NodeId> seeds = PickDelayCentreOverMembers(routes, members, k);

  // Lloyd-style refinement: assign members to the nearest seed, then
  // recentre each cluster on the candidate router that minimizes its
  // eccentricity (ties: lower total delay, then lower id). Three rounds
  // are enough for the seeded start to settle on these topologies.
  std::vector<std::size_t> assignment;
  for (int round = 0; round < 3; ++round) {
    assignment = AssignNearest(routes, seeds, members);
    std::vector<NodeId> next = seeds;
    for (std::size_t c = 0; c < seeds.size(); ++c) {
      NodeId best = seeds[c];
      SimDuration best_ecc = std::numeric_limits<SimDuration>::max();
      SimDuration best_sum = std::numeric_limits<SimDuration>::max();
      for (const NodeId candidate : in.routers) {
        if (std::find(next.begin(), next.end(), candidate) != next.end() &&
            candidate != seeds[c]) {
          continue;  // keep cluster cores distinct
        }
        SimDuration ecc = 0;
        SimDuration sum = 0;
        bool any = false;
        for (std::size_t m = 0; m < members.size(); ++m) {
          if (assignment[m] != c) continue;
          any = true;
          const SimDuration d =
              DelayOr(routes, candidate, members[m], kUnreachable);
          ecc = std::max(ecc, d);
          sum += d;
        }
        if (!any) break;  // empty cluster keeps its seed
        if (ecc < best_ecc || (ecc == best_ecc && sum < best_sum) ||
            (ecc == best_ecc && sum == best_sum && candidate < best)) {
          best_ecc = ecc;
          best_sum = sum;
          best = candidate;
        }
      }
      next[c] = best;
    }
    if (next == seeds) break;
    seeds = std::move(next);
  }

  Placement p = Finish(in, std::move(seeds));
  OrderByClusterSize(members, routes, p);
  return p;
}

// ---------------------------------------------------------------------------
// VNS strategy (arXiv 1303.4771): variable neighborhood search over
// candidate core sets, minimizing delay variation subject to a delay bound.
// ---------------------------------------------------------------------------

struct VnsCost {
  std::size_t violations = 0;  // members whose delay exceeds the bound
  SimDuration variation = 0;   // max - min member delay
  SimDuration max_delay = 0;

  bool operator<(const VnsCost& o) const {
    if (violations != o.violations) return violations < o.violations;
    if (variation != o.variation) return variation < o.variation;
    return max_delay < o.max_delay;
  }
};

constexpr int kShakes = 16;
constexpr int kSearchPasses = 8;

SimDuration AutoBound(routing::RouteManager& routes, const PlacementInput& in,
                      const std::vector<NodeId>& members) {
  SimDuration best = kUnreachable;
  for (const NodeId candidate : in.routers) {
    SimDuration ecc = 0;
    for (const NodeId m : members) {
      ecc = std::max(ecc, DelayOr(routes, candidate, m, kUnreachable));
    }
    best = std::min(best, ecc);
  }
  return best + best / 8;
}

VnsCost Eval(routing::RouteManager& routes, const std::vector<NodeId>& members,
             SimDuration bound, const std::vector<NodeId>& cores) {
  VnsCost cost;
  SimDuration min_delay = std::numeric_limits<SimDuration>::max();
  for (const NodeId m : members) {
    SimDuration d = kUnreachable;
    for (const NodeId c : cores) {
      d = std::min(d, DelayOr(routes, c, m, kUnreachable));
    }
    if (d > bound) ++cost.violations;
    cost.max_delay = std::max(cost.max_delay, d);
    min_delay = std::min(min_delay, d);
  }
  cost.variation =
      members.empty() ? SimDuration{0} : cost.max_delay - min_delay;
  return cost;
}

/// Best-improvement single swaps (chosen core <-> unused candidate)
/// until a pass finds no strictly better neighbor.
void LocalSearch(routing::RouteManager& routes,
                 const std::vector<NodeId>& candidates,
                 const std::vector<NodeId>& members, SimDuration bound,
                 std::vector<NodeId>& cores) {
  VnsCost best = Eval(routes, members, bound, cores);
  for (int pass = 0; pass < kSearchPasses; ++pass) {
    std::size_t best_i = cores.size();
    NodeId best_c{};
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const NodeId saved = cores[i];
      for (const NodeId c : candidates) {
        if (std::find(cores.begin(), cores.end(), c) != cores.end()) {
          continue;
        }
        cores[i] = c;
        const VnsCost cost = Eval(routes, members, bound, cores);
        if (cost < best) {
          best = cost;
          best_i = i;
          best_c = c;
        }
      }
      cores[i] = saved;
    }
    if (best_i == cores.size()) break;
    cores[best_i] = best_c;
  }
}

/// Replaces j random chosen cores with random unused candidates.
std::vector<NodeId> Shake(const std::vector<NodeId>& candidates,
                          std::vector<NodeId> cores, std::size_t j, Rng& rng) {
  for (std::size_t step = 0; step < j; ++step) {
    if (candidates.size() <= cores.size()) break;
    const std::size_t slot =
        static_cast<std::size_t>(rng.NextBelow(cores.size()));
    for (int tries = 0; tries < 8; ++tries) {
      const NodeId pick = candidates[static_cast<std::size_t>(
          rng.NextBelow(candidates.size()))];
      if (std::find(cores.begin(), cores.end(), pick) == cores.end()) {
        cores[slot] = pick;
        break;
      }
    }
  }
  return cores;
}

Placement PlaceVns(const PlacementInput& in, std::size_t k) {
  assert(in.routes != nullptr);
  assert(in.rng != nullptr);
  assert(k >= 1 && k <= in.routers.size());
  routing::RouteManager& routes = *in.routes;
  const std::vector<NodeId>& members = MembersOrRouters(in);
  Rng& rng = *in.rng;

  const SimDuration bound =
      in.delay_bound > 0 ? in.delay_bound : AutoBound(routes, in, members);

  std::vector<NodeId> cur = PickDelayCentre(routes, in.routers, k);
  LocalSearch(routes, in.routers, members, bound, cur);
  VnsCost cur_cost = Eval(routes, members, bound, cur);

  const std::size_t j_max = std::min<std::size_t>(k, 3);
  std::size_t j = 1;
  for (int shake = 0; shake < kShakes; ++shake) {
    std::vector<NodeId> trial = Shake(in.routers, cur, j, rng);
    LocalSearch(routes, in.routers, members, bound, trial);
    const VnsCost trial_cost = Eval(routes, members, bound, trial);
    if (trial_cost < cur_cost) {
      cur = std::move(trial);
      cur_cost = trial_cost;
      j = 1;  // improvement: restart from the smallest neighborhood
    } else {
      j = j % j_max + 1;
    }
  }

  Placement p = Finish(in, std::move(cur));
  OrderByClusterSize(members, routes, p);
  return p;
}

// ---------------------------------------------------------------------------
// Single-site strategies expressed through the same interface.
// ---------------------------------------------------------------------------

Placement PlaceRandomly(const PlacementInput& in, std::size_t k) {
  assert(in.rng != nullptr);
  return Finish(in, PickRandom(in.routers, k, *in.rng));
}

Placement PlaceByDegree(const PlacementInput& in, std::size_t k) {
  assert(in.sim != nullptr);
  return Finish(in, PickHighestDegree(*in.sim, in.routers, k));
}

Placement PlaceAtCentre(const PlacementInput& in, std::size_t k) {
  assert(in.routes != nullptr);
  return Finish(in, PickCentre(*in.routes, in.routers, k));
}

Placement PlaceAtDelayCentre(const PlacementInput& in, std::size_t k) {
  assert(in.routes != nullptr);
  return Finish(in, PickDelayCentre(*in.routes, in.routers, k));
}

Placement PlaceByHash(const PlacementInput& in, std::size_t k) {
  std::vector<NodeId> rotated = RotateByGroupHash(in.routers, in.group);
  rotated.resize(std::min(k, rotated.size()));
  return Finish(in, std::move(rotated));
}

// ---------------------------------------------------------------------------
// The registry: each strategy's name, once, in canonical sweep order.
// ---------------------------------------------------------------------------

struct Entry {
  std::string_view name;
  Placement (*place)(const PlacementInput&, std::size_t);
};

constexpr Entry kRegistry[] = {
    {"random", PlaceRandomly}, {"degree", PlaceByDegree},
    {"centre", PlaceAtCentre}, {"delay-centre", PlaceAtDelayCentre},
    {"hash", PlaceByHash},     {"locality", PlaceLocality},
    {"vns", PlaceVns},
};

class RegistryStrategy final : public Strategy {
 public:
  explicit RegistryStrategy(const Entry& entry) : entry_(entry) {}
  std::string_view name() const override { return entry_.name; }
  Placement Place(const PlacementInput& in, std::size_t k) const override {
    return entry_.place(in, k);
  }

 private:
  const Entry& entry_;
};

}  // namespace

std::vector<std::size_t> AssignNearest(routing::RouteManager& routes,
                                       const std::vector<NodeId>& cores,
                                       const std::vector<NodeId>& members) {
  std::vector<std::size_t> assignment;
  assignment.reserve(members.size());
  for (const NodeId m : members) {
    std::size_t best = 0;
    SimDuration best_delay = std::numeric_limits<SimDuration>::max();
    for (std::size_t c = 0; c < cores.size(); ++c) {
      const SimDuration d = DelayOr(routes, cores[c], m, kUnreachable);
      if (d < best_delay) {
        best_delay = d;
        best = c;
      }
    }
    assignment.push_back(best);
  }
  return assignment;
}

std::unique_ptr<Strategy> MakeStrategy(std::string_view name) {
  for (const Entry& entry : kRegistry) {
    if (entry.name == name) return std::make_unique<RegistryStrategy>(entry);
  }
  return nullptr;
}

std::vector<std::string_view> StrategyNames() {
  std::vector<std::string_view> names;
  for (const Entry& entry : kRegistry) names.push_back(entry.name);
  return names;
}

}  // namespace cbt::core_selection
