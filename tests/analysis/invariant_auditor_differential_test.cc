// Differential test for the invariant auditor: the dense, node-id-indexed
// InvariantAuditor must produce exactly the report of the map-based
// reference below (the auditor as it was before its views went dense) —
// the same counts, and the same violations with the same text in the same
// order — at every poll of seeded crash, flap and partition runs, and
// after random FIB corruption that forces loops and duplicate children.
// Every scenario also runs with the routers listed in descending node id,
// so a check that walks router_ids()'s topology order instead of
// ascending node id reorders the violations and fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "cbt/domain.h"
#include "common/random.h"
#include "netsim/chaos.h"
#include "netsim/topologies.h"

namespace cbt::analysis {
namespace {

using core::CbtDomain;
using core::CbtRouter;
using core::ChildEntry;
using core::FibEntry;

// ---------------------------------------------------------------------------
// Reference: one std::map of router views per group, a std::set per entry
// for duplicate children, and a std::set plus a path per loop walk.

struct RefView {
  NodeId id;
  CbtRouter* router = nullptr;
  const FibEntry* entry = nullptr;
};

std::string RefAddrName(const netsim::Simulator& sim, Ipv4Address addr) {
  if (const auto node = sim.FindNodeByAddress(addr)) {
    return sim.node(*node).name + "(" + addr.ToString() + ")";
  }
  return addr.ToString();
}

void ReferenceAuditGroup(CbtDomain& domain, Ipv4Address group,
                         AuditReport& report) {
  ++report.groups_checked;
  netsim::Simulator& sim = domain.sim();
  const auto note = [&](InvariantKind kind, NodeId node, std::string detail) {
    report.violations.push_back(
        Violation{kind, group, node, SubnetId{}, std::move(detail)});
  };

  std::map<NodeId, RefView> views;
  bool members_anywhere = false;
  for (const NodeId id : domain.router_ids()) {
    CbtRouter& r = domain.router(id);
    RefView view;
    view.id = id;
    view.router = &r;
    const bool dead = !sim.node(id).up || r.IsCrashed();
    view.entry = dead ? nullptr : r.fib().Find(group);
    if (view.entry != nullptr) ++report.routers_on_tree;
    if (!dead && r.IsPending(group)) ++report.transient_joins;
    if (!dead && r.igmp().AnyMembers(group)) members_anywhere = true;
    views[id] = view;
  }
  const auto entry_of = [&](NodeId id) -> const FibEntry* {
    const auto it = views.find(id);
    return it == views.end() ? nullptr : it->second.entry;
  };

  for (const auto& [id, view] : views) {
    if (view.entry == nullptr) continue;
    const FibEntry& entry = *view.entry;
    const std::string& name = sim.node(id).name;

    std::set<Ipv4Address> child_addrs;
    for (const ChildEntry& child : entry.children) {
      if (!child_addrs.insert(child.address).second) {
        note(InvariantKind::kDuplicateChild, id,
             name + " records child " + child.address.ToString() + " twice");
      }
    }

    if (entry.HasParent()) {
      const auto parent_node = sim.FindNodeByAddress(entry.parent_address);
      const FibEntry* parent_entry =
          parent_node ? entry_of(*parent_node) : nullptr;
      if (!parent_node) {
        note(InvariantKind::kBrokenParentLink, id,
             name + " parent " + entry.parent_address.ToString() +
                 " resolves to no node");
      } else if (parent_entry == nullptr) {
        note(InvariantKind::kBrokenParentLink, id,
             name + " parent " + RefAddrName(sim, entry.parent_address) +
                 " is dead or off-tree");
      } else {
        const Ipv4Address my_addr =
            sim.interface(id, entry.parent_vif).address;
        if (parent_entry->FindChild(my_addr) == nullptr) {
          note(InvariantKind::kAsymmetricChild, id,
               name + " has parent " + RefAddrName(sim, entry.parent_address) +
                   " but is not recorded as its child");
        }
      }
    } else if (!entry.is_primary_core) {
      note(InvariantKind::kDetachedSubtree, id,
           name + " has no parent and is not the primary core");
    }

    for (const ChildEntry& child : entry.children) {
      const auto child_node = sim.FindNodeByAddress(child.address);
      const FibEntry* child_entry =
          child_node ? entry_of(*child_node) : nullptr;
      if (!child_node || child_entry == nullptr) {
        note(InvariantKind::kAsymmetricChild, id,
             name + " records child " + RefAddrName(sim, child.address) +
                 " which is dead or off-tree");
        continue;
      }
      const Ipv4Address my_addr = sim.interface(id, child.vif).address;
      if (child_entry->parent_address != my_addr) {
        note(InvariantKind::kAsymmetricChild, id,
             name + " records child " + RefAddrName(sim, child.address) +
                 " whose parent is " +
                 RefAddrName(sim, child_entry->parent_address));
      }
    }

    if (!members_anywhere && !entry.is_primary_core) {
      note(InvariantKind::kStaleState, id,
           name + " holds state for the memberless group");
    }

    if (entry.is_primary_core && domain.directory().Knows(group)) {
      const auto primary = domain.directory().PrimaryCore(group);
      const auto owner =
          primary ? sim.FindNodeByAddress(*primary) : std::nullopt;
      if (owner.has_value() && *owner != id) {
        note(InvariantKind::kStaleAnchor, id,
             name + " anchors as primary but the directory primary is " +
                 RefAddrName(sim, *primary));
      }
    }
  }

  for (const auto& [start, view] : views) {
    if (view.entry == nullptr) continue;
    std::vector<NodeId> path;
    std::set<NodeId> seen;
    NodeId cur = start;
    const FibEntry* cur_entry = view.entry;
    while (cur_entry != nullptr && cur_entry->HasParent()) {
      path.push_back(cur);
      seen.insert(cur);
      const auto next = sim.FindNodeByAddress(cur_entry->parent_address);
      if (!next) break;
      if (seen.contains(*next)) {
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
      cur_entry = entry_of(cur);
    }
  }

  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    const netsim::SubnetRecord& subnet = sim.subnet(sid);
    if (!subnet.multi_access || !subnet.up) continue;
    bool present = false;
    bool served = false;
    for (const auto& [node, vif] : subnet.attachments) {
      const auto it = views.find(node);
      if (it == views.end()) continue;
      const RefView& rv = it->second;
      if (!sim.node(node).up || rv.router->IsCrashed()) continue;
      if (!sim.interface(node, vif).up) continue;
      if (rv.router->igmp().HasMembers(vif, group)) present = true;
      if (rv.entry != nullptr && rv.router->IsSubnetDr(group, vif)) {
        served = true;
      }
    }
    if (present && !served) {
      report.violations.push_back(Violation{
          InvariantKind::kMemberLanDetached, group, NodeId{}, sid,
          "LAN " + subnet.name + " has members but no on-tree DR"});
    }
  }
}

AuditReport ReferenceAudit(CbtDomain& domain) {
  AuditReport report;
  report.at = domain.sim().Now();
  std::set<Ipv4Address> groups;
  for (const Ipv4Address g : domain.directory().Groups()) groups.insert(g);
  for (const NodeId id : domain.router_ids()) {
    for (const auto& [g, entry] : domain.router(id).fib()) groups.insert(g);
  }
  for (const Ipv4Address g : groups) ReferenceAuditGroup(domain, g, report);
  return report;
}

// ---------------------------------------------------------------------------

testing::AssertionResult SameReport(const AuditReport& got,
                                    const AuditReport& want) {
  if (got.at != want.at || got.groups_checked != want.groups_checked ||
      got.routers_on_tree != want.routers_on_tree ||
      got.transient_joins != want.transient_joins ||
      got.violations.size() != want.violations.size()) {
    return testing::AssertionFailure() << "got " << got.Summary()
                                       << "\nwant " << want.Summary();
  }
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    const Violation& g = got.violations[i];
    const Violation& w = want.violations[i];
    if (g.kind != w.kind || g.group != w.group || g.node != w.node ||
        g.subnet != w.subnet || g.detail != w.detail) {
      return testing::AssertionFailure()
             << "violation " << i << ": got " << g.Describe() << "\nwant "
             << w.Describe();
    }
  }
  return testing::AssertionSuccess();
}

constexpr Ipv4Address kSingleCore(239, 5, 0, 1);
constexpr Ipv4Address kTwoCores(239, 5, 0, 2);

core::CbtConfig FastRepairConfig() {
  core::CbtConfig config;
  config.echo_interval = 5 * kSecond;
  config.echo_timeout = 15 * kSecond;
  config.pend_join_interval = 2 * kSecond;
  config.pend_join_timeout = 8 * kSecond;
  config.expire_pending_join = 30 * kSecond;
  config.child_assert_interval = 10 * kSecond;
  config.child_assert_expire = 25 * kSecond;
  config.reconnect_timeout = 30 * kSecond;
  return config;
}

/// A 4x4 grid with two groups (one with a secondary core) and members on
/// half the stub LANs; `descending` lists the routers in descending node
/// id, so router_ids() is not in ascending order.
struct GridWorld {
  GridWorld(std::uint64_t seed, bool descending) : sim(seed) {
    topo = netsim::MakeGrid(sim, 4, 4);
    if (descending) std::reverse(topo.routers.begin(), topo.routers.end());
    domain.emplace(sim, topo, FastRepairConfig());
    const std::vector<NodeId> by_id = SortedRouters();
    domain->RegisterGroup(kSingleCore, {by_id[5]});
    domain->RegisterGroup(kTwoCores, {by_id[10], by_id[3]});
    domain->Start();
    sim.RunUntil(kSecond);
    for (std::size_t lan = 0; lan < topo.router_lans.size(); lan += 2) {
      core::HostAgent& host =
          domain->AddHost(topo.router_lans[lan], netsim::Numbered("m", lan));
      host.JoinGroup(lan % 4 == 0 ? kSingleCore : kTwoCores);
      if (lan % 6 == 0) host.JoinGroup(kTwoCores);
    }
  }

  std::vector<NodeId> SortedRouters() const {
    std::vector<NodeId> ids = topo.routers;
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  netsim::Simulator sim;
  netsim::Topology topo;
  std::optional<CbtDomain> domain;
};

struct Tally {
  int polls = 0;
  int dirty_polls = 0;
};

/// Audits with both auditors every simulated second through a seeded
/// plan of `type` faults and its recovery.
Tally PollThroughChaos(std::uint64_t seed, bool descending,
                       netsim::ChaosEventType type) {
  GridWorld w(seed, descending);
  const std::vector<NodeId> by_id = w.SortedRouters();
  std::vector<NodeId> crashable;
  for (const NodeId id : by_id) {
    if (id != by_id[5] && id != by_id[10] && id != by_id[3]) {
      crashable.push_back(id);
    }
  }
  std::vector<SubnetId> flappable;
  for (std::size_t s = 0; s < w.sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    if (std::find(w.topo.router_lans.begin(), w.topo.router_lans.end(),
                  sid) == w.topo.router_lans.end()) {
      flappable.push_back(sid);
    }
  }
  netsim::ChaosPlanParams params;
  params.event_count = 4;
  params.start = 40 * kSecond;
  params.min_gap = 20 * kSecond;
  params.max_gap = 40 * kSecond;
  params.min_down = 5 * kSecond;
  params.max_down = 20 * kSecond;
  params.flap_weight = type == netsim::ChaosEventType::kLinkFlap ? 1.0 : 0.0;
  params.crash_weight = type == netsim::ChaosEventType::kNodeCrash ? 1.0 : 0.0;
  params.partition_weight =
      type == netsim::ChaosEventType::kPartition ? 1.0 : 0.0;
  params.max_partition_size = 3;
  netsim::ChaosInjector injector(w.sim, w.domain->ChaosHooks());
  injector.Arm(netsim::MakeRandomPlan(seed, params, crashable, flappable));

  const InvariantAuditor auditor(*w.domain);
  Tally tally;
  const SimTime end = injector.plan().LastRepairTime() + 60 * kSecond;
  while (w.sim.Now() < end) {
    const AuditReport got = auditor.Audit();
    const AuditReport want = ReferenceAudit(*w.domain);
    EXPECT_TRUE(SameReport(got, want)) << "at " << FormatSimTime(w.sim.Now());
    if (testing::Test::HasFailure()) return tally;
    ++tally.polls;
    if (!want.Clean()) ++tally.dirty_polls;
    w.sim.RunUntil(w.sim.Now() + kSecond);
  }
  return tally;
}

struct ChaosCase {
  const char* name;
  netsim::ChaosEventType type;
  bool descending;
};

void PrintTo(const ChaosCase& c, std::ostream* os) { *os << c.name; }

class AuditorDifferential : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(AuditorDifferential, MatchesReferenceAtEveryPoll) {
  const ChaosCase c = GetParam();
  int polls = 0;
  int dirty_polls = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Tally tally = PollThroughChaos(seed, c.descending, c.type);
    if (testing::Test::HasFailure()) return;
    polls += tally.polls;
    dirty_polls += tally.dirty_polls;
  }
  // The faults must leave the auditor something to report, and the runs
  // must recover.
  EXPECT_GT(dirty_polls, 0);
  EXPECT_LT(dirty_polls, polls);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, AuditorDifferential,
    ::testing::Values(
        ChaosCase{"Crash", netsim::ChaosEventType::kNodeCrash, false},
        ChaosCase{"CrashDescending", netsim::ChaosEventType::kNodeCrash, true},
        ChaosCase{"Flap", netsim::ChaosEventType::kLinkFlap, false},
        ChaosCase{"FlapDescending", netsim::ChaosEventType::kLinkFlap, true},
        ChaosCase{"Partition", netsim::ChaosEventType::kPartition, false},
        ChaosCase{"PartitionDescending", netsim::ChaosEventType::kPartition,
                  true}),
    [](const testing::TestParamInfo<ChaosCase>& info) {
      return std::string(info.param.name);
    });

/// Rewires converged FIBs behind the protocol's back — parents pointed
/// at other on-tree routers (loops), copied children, dropped entries,
/// downed routers — auditing with both auditors after every edit.
TEST(AuditorDifferentialCorruption, MatchesReferenceOnCorruptedFibs) {
  std::map<InvariantKind, int> kinds;
  for (const bool descending : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << (descending ? " descending" : ""));
      GridWorld w(seed, descending);
      w.sim.RunUntil(30 * kSecond);
      Rng rng(seed);
      const std::vector<NodeId> by_id = w.SortedRouters();
      const InvariantAuditor auditor(*w.domain);
      for (int edit = 0; edit < 24; ++edit) {
        const Ipv4Address group = rng.NextBool(0.5) ? kSingleCore : kTwoCores;
        std::vector<NodeId> on_tree;
        for (const NodeId id : by_id) {
          if (w.domain->router(id).fib().Find(group) != nullptr) {
            on_tree.push_back(id);
          }
        }
        if (on_tree.empty()) continue;
        const NodeId victim = on_tree[rng.NextBelow(on_tree.size())];
        FibEntry& entry = *w.domain->router(victim).mutable_fib().Find(group);
        switch (rng.NextBelow(4)) {
          case 0: {  // parent -> another on-tree router: loops and breaks
            const NodeId to = on_tree[rng.NextBelow(on_tree.size())];
            entry.parent_address = w.sim.node(to).interfaces.front().address;
            entry.parent_vif = 0;
            break;
          }
          case 1:  // parent -> a child: a two-router loop
            if (!entry.children.empty()) {
              entry.parent_address = entry.children.front().address;
              entry.parent_vif = entry.children.front().vif;
            }
            break;
          case 2:  // a copied child
            if (!entry.children.empty()) {
              entry.children.push_back(entry.children.back());
            }
            break;
          default:
            if (rng.NextBool(0.5)) {
              w.domain->router(victim).mutable_fib().Remove(group);
            } else {
              w.sim.SetNodeUp(victim, false);
            }
            break;
        }
        const AuditReport got = auditor.Audit();
        const AuditReport want = ReferenceAudit(*w.domain);
        ASSERT_TRUE(SameReport(got, want)) << "edit " << edit;
        for (const Violation& v : want.violations) ++kinds[v.kind];
      }
    }
  }
  EXPECT_GT(kinds[InvariantKind::kParentLoop], 0);
  EXPECT_GT(kinds[InvariantKind::kDuplicateChild], 0);
  EXPECT_GT(kinds[InvariantKind::kBrokenParentLink], 0);
}

}  // namespace
}  // namespace cbt::analysis
