// Core placement strategies.
//
// The spec externalizes core selection ("work is currently in progress to
// address the issue of core placement"); the CBT architecture and the
// SIGCOMM'93 evaluation discuss how placement quality drives the shared
// tree's delay and traffic concentration. Every placement is a
// `core_selection::Strategy` resolved by name through `MakeStrategy`:
//  * random — the pessimistic baseline;
//  * degree — highest attached-subnet count, a cheap structural heuristic;
//  * centre — greedy k-center over router distances (the best static
//    placement a management entity could compute);
//  * delay-centre — k-center over propagation delay, which directly bounds
//    the shared tree's delay penalty (experiment E3);
//  * hash — deterministic group→core mapping over the candidate set,
//    modelling the HPIM-style "function used to map a group address onto a
//    particular core" ([8], section 2.4 note);
//  * locality — receiver→core partitioning: cluster the member routers by
//    unicast delay and place one core per cluster (Locality Based Core
//    Selection for Multicore Shared Tree Multicasting, arXiv 1606.04928);
//  * vns — delay/delay-variation-constrained placement via variable
//    neighborhood search over candidate core sets (VNS-based RP
//    management, arXiv 1303.4771).
//
// Multi-core strategies return a `Placement`: the ordered core list plus a
// member→core assignment that `CbtDomain::RegisterGroup` feeds into the
// `GroupDirectory` so each member LAN joins its assigned core's subtree.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "netsim/simulator.h"
#include "routing/route_manager.h"

namespace cbt::core_selection {

/// Everything a placement strategy may consult. Individual strategies use
/// subsets: `routers` (the candidate core sites) is always required;
/// `routes` for any distance-aware strategy, `sim` for degree, `rng` for
/// random/vns, `group` for hash, `member_routers` for locality/vns (when
/// empty, the candidate set doubles as the member set).
struct PlacementInput {
  const netsim::Simulator* sim = nullptr;
  routing::RouteManager* routes = nullptr;
  /// Candidate core sites.
  std::vector<NodeId> routers;
  /// Attachment routers of the group's member LANs (one entry per LAN;
  /// duplicates allowed — a router attaching two member LANs counts twice
  /// when clusters are balanced).
  std::vector<NodeId> member_routers;
  Ipv4Address group;
  Rng* rng = nullptr;
  /// Upper bound on member→assigned-core delay for `vns` (the paper's
  /// delay constraint). 0 means auto: 9/8 of the best single-core
  /// eccentricity over the members.
  SimDuration delay_bound = 0;
};

/// A k-core placement: the ordered core list (cores[0] is the primary) and,
/// for each entry of `PlacementInput::member_routers`, the index of the
/// core whose subtree that member LAN should join. `assignment` is empty
/// when the input had no member routers.
struct Placement {
  std::vector<NodeId> cores;
  std::vector<std::size_t> assignment;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Registry name ("random", "locality", ...).
  virtual std::string_view name() const = 0;

  /// Picks k cores from `in.routers` and assigns each member router to
  /// one of them. k must be >= 1 and <= in.routers.size().
  virtual Placement Place(const PlacementInput& in, std::size_t k) const = 0;
};

/// Instantiates a strategy by registry name; nullptr for unknown names.
/// Names: random | degree | centre | delay-centre | hash | locality | vns.
std::unique_ptr<Strategy> MakeStrategy(std::string_view name);

/// All registry names, in canonical sweep order.
std::vector<std::string_view> StrategyNames();

/// Nearest-core member assignment by unicast path delay (ties: lower core
/// index). This is the default partition for strategies that only pick
/// core sites; exposed so benches can re-derive assignments for arbitrary
/// core lists.
std::vector<std::size_t> AssignNearest(routing::RouteManager& routes,
                                       const std::vector<NodeId>& cores,
                                       const std::vector<NodeId>& members);

}  // namespace cbt::core_selection
