// Global tree-invariant auditor: a whole-domain consistency check that can
// run at any simulation time.
//
// CBT's correctness argument rests on a handful of structural invariants
// of the shared tree. At convergence (no faults outstanding, all repair
// timers run their course) every one of them must hold:
//
//  * rootedness / no forwarding loops — following parent pointers from any
//    on-tree router terminates at the group's anchoring core without
//    revisiting a router;
//  * parent/child FIB symmetry — if R records P as parent then P records
//    R's interface address as a child on the matching subnet, and every
//    child a parent records holds reciprocal parent state;
//  * no duplicate children — packet duplication or join races must never
//    yield two child entries for one address (it would double traffic);
//  * member attachment — every LAN with IGMP group presence has an
//    on-tree DR (normal D-DR or section 2.6 G-DR) to serve it;
//  * no stale state — a group with no members anywhere eventually holds
//    state only at its primary core (the permanent anchor);
//  * anchor consistency — a router claiming the primary-core role for a
//    directory-known group actually owns the published primary address
//    (a half-completed core migration is exactly what violates this).
//
// During fault windows and recovery the auditor reports violations; the
// convergence probe (RunUntilInvariantsHold) measures recovery time as
// fault-time → first audit with every invariant restored.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cbt/domain.h"
#include "common/types.h"

namespace cbt::analysis {

enum class InvariantKind {
  kParentLoop,         // parent-pointer walk revisited a router
  kDetachedSubtree,    // walk ended at a parentless non-primary-core router
  kBrokenParentLink,   // parent address: dead node, off-tree, or unknown
  kAsymmetricChild,    // child entry without reciprocal parent state
  kDuplicateChild,     // same child address recorded twice in one entry
  kMemberLanDetached,  // LAN with IGMP presence but no on-tree DR
  kStaleState,         // non-anchor state for a group with no members
  kStaleAnchor,        // primary-core claim contradicting the directory
};

const char* InvariantKindName(InvariantKind kind);

struct Violation {
  InvariantKind kind;
  Ipv4Address group;
  /// Offending router (kMemberLanDetached reports the LAN's subnet via
  /// `subnet` instead; `node` is then invalid).
  NodeId node;
  SubnetId subnet;
  std::string detail;

  std::string Describe() const;
};

struct AuditReport {
  SimTime at = 0;
  std::size_t groups_checked = 0;
  std::size_t routers_on_tree = 0;
  /// Pending (transient) joins outstanding at audit time. Not violations —
  /// soft-state refreshes legitimately open short-lived joins — but useful
  /// to distinguish "converged" from "quiet mid-handshake".
  std::size_t transient_joins = 0;
  std::vector<Violation> violations;

  bool Clean() const { return violations.empty(); }
  std::size_t CountOf(InvariantKind kind) const;
  std::string Summary() const;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(core::CbtDomain& domain) : domain_(&domain) {}

  /// Audits every group known to the directory or held in any router FIB.
  AuditReport Audit() const;

 private:
  /// Node-id-indexed router views and loop-walk stamps, built once per
  /// audit and refilled for each of its groups.
  struct Scratch;

  /// Audits a single group into `report`.
  void AuditGroup(Ipv4Address group, AuditReport& report,
                  Scratch& scratch) const;

  core::CbtDomain* domain_;
};

/// Convergence probe: runs the simulation forward, auditing every
/// `poll_interval`, until a fully clean audit or `deadline` (sim time).
/// Returns the time of the first clean audit, or nullopt if the deadline
/// passed first (the simulator is then positioned at `deadline`).
std::optional<SimTime> RunUntilInvariantsHold(
    core::CbtDomain& domain, SimTime deadline,
    SimDuration poll_interval = kSecond);

}  // namespace cbt::analysis
