#include "analysis/invariant_auditor.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>

namespace cbt::analysis {
namespace {

using core::CbtDomain;
using core::CbtRouter;
using core::ChildEntry;
using core::FibEntry;

/// A router's view of one group, with liveness folded in: a down or
/// crashed router holds no *effective* state (it can neither forward nor
/// answer echoes), so references to it are dangling.
struct RouterView {
  CbtRouter* router = nullptr;      // nullptr for a host
  const FibEntry* entry = nullptr;  // nullptr when off-tree or dead
};

std::string AddrName(const netsim::Simulator& sim, Ipv4Address addr) {
  if (const auto node = sim.FindNodeByAddress(addr)) {
    return sim.node(*node).name + "(" + addr.ToString() + ")";
  }
  return addr.ToString();
}

}  // namespace

const char* InvariantKindName(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kParentLoop:
      return "parent-loop";
    case InvariantKind::kDetachedSubtree:
      return "detached-subtree";
    case InvariantKind::kBrokenParentLink:
      return "broken-parent-link";
    case InvariantKind::kAsymmetricChild:
      return "asymmetric-child";
    case InvariantKind::kDuplicateChild:
      return "duplicate-child";
    case InvariantKind::kMemberLanDetached:
      return "member-lan-detached";
    case InvariantKind::kStaleState:
      return "stale-state";
    case InvariantKind::kStaleAnchor:
      return "stale-anchor";
  }
  return "?";
}

std::string Violation::Describe() const {
  std::ostringstream os;
  os << InvariantKindName(kind) << " group=" << group.ToString() << " "
     << detail;
  return os.str();
}

std::size_t AuditReport::CountOf(InvariantKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const Violation& v) { return v.kind == kind; }));
}

std::string AuditReport::Summary() const {
  std::ostringstream os;
  os << "audit @" << FormatSimTime(at) << ": " << groups_checked << " groups, "
     << routers_on_tree << " on-tree routers, " << transient_joins
     << " transient joins, " << violations.size() << " violations";
  for (const Violation& v : violations) os << "\n  " << v.Describe();
  return os.str();
}

struct InvariantAuditor::Scratch {
  explicit Scratch(core::CbtDomain& domain)
      : routers(domain.router_ids()),
        views(domain.sim().node_count()),
        stamp(domain.sim().node_count(), 0) {
    // Checks run in ascending node id: the order of the domain's router
    // map, not router_ids()'s topology order.
    std::sort(routers.begin(), routers.end());
    for (const NodeId id : routers) view(id).router = &domain.router(id);
  }

  RouterView& view(NodeId id) {
    return views[static_cast<std::size_t>(id.value())];
  }
  const FibEntry* entry_of(NodeId id) { return view(id).entry; }

  std::vector<NodeId> routers;
  std::vector<RouterView> views;
  /// stamp[node] == walk while the current parent walk has visited node.
  std::vector<std::uint32_t> stamp;
  std::uint32_t walk = 0;
  std::vector<NodeId> path;
};

AuditReport InvariantAuditor::Audit() const {
  AuditReport report;
  report.at = domain_->sim().Now();

  std::set<Ipv4Address> groups;
  for (const Ipv4Address g : domain_->directory().Groups()) groups.insert(g);
  for (const NodeId id : domain_->router_ids()) {
    for (const auto& [g, entry] : domain_->router(id).fib()) groups.insert(g);
  }
  Scratch scratch(*domain_);
  for (const Ipv4Address g : groups) AuditGroup(g, report, scratch);
  return report;
}

void InvariantAuditor::AuditGroup(Ipv4Address group, AuditReport& report,
                                  Scratch& scratch) const {
  ++report.groups_checked;
  netsim::Simulator& sim = domain_->sim();

  const auto note = [&](InvariantKind kind, NodeId node, std::string detail) {
    OBS_TRACE(sim.trace(), .time = sim.Now(),
              .kind = obs::TraceKind::kInvariant,
              .name = InvariantKindName(kind), .node = node.value(),
              .group = group);
    report.violations.push_back(
        Violation{kind, group, node, SubnetId{}, std::move(detail)});
  };

  // Collect every live router's effective state for this group.
  bool members_anywhere = false;
  for (const NodeId id : scratch.routers) {
    RouterView& view = scratch.view(id);
    const CbtRouter& r = *view.router;
    const bool dead = !sim.node(id).up || r.IsCrashed();
    view.entry = dead ? nullptr : r.fib().Find(group);
    if (view.entry != nullptr) ++report.routers_on_tree;
    if (!dead && r.IsPending(group)) ++report.transient_joins;
    if (!dead && r.igmp().AnyMembers(group)) members_anywhere = true;
  }

  // --- Per-router structural checks -----------------------------------
  for (const NodeId id : scratch.routers) {
    const FibEntry* const view_entry = scratch.entry_of(id);
    if (view_entry == nullptr) continue;
    const FibEntry& entry = *view_entry;
    const std::string& name = sim.node(id).name;

    // Duplicate children (packet duplication / join races must collapse):
    // an entry holds a few children, so a pairwise scan beats a set.
    for (auto child = entry.children.begin(); child != entry.children.end();
         ++child) {
      const auto same = [&](const ChildEntry& c) {
        return c.address == child->address;
      };
      if (std::any_of(entry.children.begin(), child, same)) {
        note(InvariantKind::kDuplicateChild, id,
             name + " records child " + child->address.ToString() + " twice");
      }
    }

    // Upstream symmetry: our parent must be live, on-tree, and must list
    // our interface address as a child.
    if (entry.HasParent()) {
      const auto parent_node = sim.FindNodeByAddress(entry.parent_address);
      const FibEntry* parent_entry =
          parent_node ? scratch.entry_of(*parent_node) : nullptr;
      if (!parent_node) {
        note(InvariantKind::kBrokenParentLink, id,
             name + " parent " + entry.parent_address.ToString() +
                 " resolves to no node");
      } else if (parent_entry == nullptr) {
        note(InvariantKind::kBrokenParentLink, id,
             name + " parent " + AddrName(sim, entry.parent_address) +
                 " is dead or off-tree");
      } else {
        const Ipv4Address my_addr =
            sim.interface(id, entry.parent_vif).address;
        if (parent_entry->FindChild(my_addr) == nullptr) {
          note(InvariantKind::kAsymmetricChild, id,
               name + " has parent " + AddrName(sim, entry.parent_address) +
                   " but is not recorded as its child");
        }
      }
    } else if (!entry.is_primary_core) {
      // A parentless non-primary-core router is a detached subtree root
      // (reconnect in flight, or an orphaned secondary-core anchor).
      note(InvariantKind::kDetachedSubtree, id,
           name + " has no parent and is not the primary core");
    }

    // Downstream symmetry: every recorded child must hold reciprocal
    // parent state pointing back at us.
    for (const ChildEntry& child : entry.children) {
      const auto child_node = sim.FindNodeByAddress(child.address);
      const FibEntry* child_entry =
          child_node ? scratch.entry_of(*child_node) : nullptr;
      if (!child_node || child_entry == nullptr) {
        note(InvariantKind::kAsymmetricChild, id,
             name + " records child " + AddrName(sim, child.address) +
                 " which is dead or off-tree");
        continue;
      }
      const Ipv4Address my_addr = sim.interface(id, child.vif).address;
      if (child_entry->parent_address != my_addr) {
        note(InvariantKind::kAsymmetricChild, id,
             name + " records child " + AddrName(sim, child.address) +
                 " whose parent is " +
                 AddrName(sim, child_entry->parent_address));
      }
    }

    // Stale state: with no member anywhere, only the primary core keeps
    // anchoring state once teardown has run its course.
    if (!members_anywhere && !entry.is_primary_core) {
      note(InvariantKind::kStaleState, id,
           name + " holds state for the memberless group");
    }

    // Anchor consistency: the primary-core claim must match the published
    // mapping. A replaced core list (live migration) makes the old anchor
    // stale the moment the directory flips; reconciliation must clear it.
    if (entry.is_primary_core && domain_->directory().Knows(group)) {
      const auto primary = domain_->directory().PrimaryCore(group);
      const auto owner =
          primary ? sim.FindNodeByAddress(*primary) : std::nullopt;
      if (owner.has_value() && *owner != id) {
        note(InvariantKind::kStaleAnchor, id,
             name + " anchors as primary but the directory primary is " +
                 AddrName(sim, *primary));
      }
    }
  }

  // --- Rootedness / loop detection ------------------------------------
  // Parent-pointer walk from every on-tree router must reach the anchor.
  // Broken links and detached roots were reported above; here we only
  // catch cycles. A cycle is reported once, attributed to its
  // lowest-numbered member. Each walk stamps the nodes it visits with its
  // own number, so no per-walk set is built or cleared.
  std::vector<NodeId>& path = scratch.path;
  for (const NodeId start : scratch.routers) {
    const FibEntry* cur_entry = scratch.entry_of(start);
    if (cur_entry == nullptr) continue;
    const std::uint32_t walk = ++scratch.walk;
    path.clear();
    NodeId cur = start;
    while (cur_entry != nullptr && cur_entry->HasParent()) {
      path.push_back(cur);
      scratch.stamp[static_cast<std::size_t>(cur.value())] = walk;
      const auto next = sim.FindNodeByAddress(cur_entry->parent_address);
      if (!next) break;
      if (scratch.stamp[static_cast<std::size_t>(next->value())] == walk) {
        // Cycle: the portion of `path` from *next onward.
        const auto cycle_start = std::find(path.begin(), path.end(), *next);
        const NodeId lowest = *std::min_element(cycle_start, path.end());
        if (start == lowest) {
          std::ostringstream os;
          os << "forwarding loop:";
          for (auto it = cycle_start; it != path.end(); ++it) {
            os << " " << sim.node(*it).name;
          }
          note(InvariantKind::kParentLoop, start, os.str());
        }
        break;
      }
      cur = *next;
      cur_entry = scratch.entry_of(cur);
    }
  }

  // --- Member-LAN attachment -------------------------------------------
  // Every live multi-access subnet with IGMP presence needs an on-tree DR.
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    const netsim::SubnetRecord& subnet = sim.subnet(sid);
    if (!subnet.multi_access || !subnet.up) continue;
    bool present = false;
    bool served = false;
    for (const auto& [node, vif] : subnet.attachments) {
      const RouterView& rv = scratch.view(node);
      if (rv.router == nullptr) continue;  // host attachment
      if (!sim.node(node).up || rv.router->IsCrashed()) continue;
      if (!sim.interface(node, vif).up) continue;
      if (rv.router->igmp().HasMembers(vif, group)) present = true;
      if (rv.entry != nullptr && rv.router->IsSubnetDr(group, vif)) {
        served = true;
      }
    }
    if (present && !served) {
      OBS_TRACE(sim.trace(), .time = sim.Now(),
                .kind = obs::TraceKind::kInvariant,
                .name = InvariantKindName(InvariantKind::kMemberLanDetached),
                .group = group,
                .arg_a = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(sid.value())));
      report.violations.push_back(Violation{
          InvariantKind::kMemberLanDetached, group, NodeId{}, sid,
          "LAN " + subnet.name + " has members but no on-tree DR"});
    }
  }
}

std::optional<SimTime> RunUntilInvariantsHold(core::CbtDomain& domain,
                                              SimTime deadline,
                                              SimDuration poll_interval) {
  InvariantAuditor auditor(domain);
  netsim::Simulator& sim = domain.sim();
  for (;;) {
    if (auditor.Audit().Clean()) return sim.Now();
    if (sim.Now() >= deadline) return std::nullopt;
    sim.RunUntil(std::min(deadline, sim.Now() + poll_interval));
  }
}

}  // namespace cbt::analysis
