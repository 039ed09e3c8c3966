// Data-plane flow cache: memoized forwarding decisions per router.
//
// ForwardAlongTree's decision — which vifs get a native multicast, which
// neighbours get a CBT-mode encapsulation, which member LANs get a local
// delivery — is resolved by CbtRouter::BuildFlowDecision, which the
// cache-off slow path calls on every packet. It depends only on (group,
// arrival vif, arrival source, arrival mode) plus slowly-changing control
// state (FIB entry, IGMP membership, DR/G-DR role, tunnel modes). The
// cache stores the resolved decision keyed by the fast-varying tuple and
// validates it against generation counters of the slow state:
//
//   * Fib::table_generation()  — bumped by entry Create/Remove; paired
//     with FibEntry::generation this is alias-free across teardown and
//     re-install of the same group;
//   * FibEntry::generation     — bumped by every forwarding-relevant
//     entry mutation (parent re-point, child edits, core list);
//   * a combined router epoch  — the sum of monotonic counters covering
//     IGMP membership/querier state, tunnel-mode configuration and the
//     router's own DR/proxy/crash state. Sums of monotonic counters are
//     monotonic, so a matching epoch proves none of the inputs moved.
//
// A mismatch on any of the three is a miss; correctness never depends on
// anyone calling an explicit flush. CbtRouter::FlowCacheCoherent() is the
// debug oracle: it recomputes every would-be-hit slot from scratch and
// compares, catching state mutated behind the generation counters.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/small_vec.h"
#include "common/types.h"

namespace cbt::core {

/// The fast-varying half of a forwarding decision's inputs.
struct FlowKey {
  Ipv4Address group;
  VifIndex arrival_vif = kInvalidVif;
  /// Link-level source of the arriving packet: decides the "don't echo
  /// back to the neighbour it came from" exclusions (parent and child
  /// skip checks).
  Ipv4Address arrival_src;
  /// Native vs CBT-mode arrival: changes the arrival-vif exclusions and
  /// the member-LAN TTL handling.
  bool cbt_arrival = false;

  bool operator==(const FlowKey&) const = default;
};

/// One pre-resolved encapsulated output.
struct FlowCbtTarget {
  VifIndex vif = kInvalidVif;
  /// Outer IP source (the vif's own address, resolved at build time —
  /// interface addresses are immutable in the simulator).
  Ipv4Address src;
  /// Outer IP destination: the sole child/parent, or the group address
  /// for a multi-child CBT multicast.
  Ipv4Address dst;

  bool operator==(const FlowCbtTarget&) const = default;
};

/// A resolved forwarding decision. Everything here is arrival-invariant
/// given the key; the only residual per-packet check the executor keeps
/// is "does this member LAN contain the packet's origin" (origin varies
/// per packet, not per flow).
struct FlowDecision {
  /// Tree vifs (parent and/or child) in native mode: one IP multicast
  /// each, in emission order.
  SmallVec<VifIndex, 8> native_vifs;
  /// CBT-mode outputs (per-neighbour unicast or per-vif multicast).
  SmallVec<FlowCbtTarget, 8> cbt_targets;
  /// Member LANs this router delivers onto (IsSubnetDr and the
  /// arrival/native-overlap dedup already applied at build time).
  SmallVec<VifIndex, 8> member_vifs;

  bool operator==(const FlowDecision&) const = default;
};

struct FlowSlot {
  FlowKey key;
  std::uint64_t table_generation = 0;
  std::uint64_t entry_generation = 0;
  std::uint64_t epoch = 0;
  bool valid = false;
  FlowDecision decision;
};

/// Set-associative per-router cache. Sixteen sets of four ways cover the
/// working set of a router on a handful of trees; a core router
/// interleaving many concurrent streams keeps up to four flows per set
/// resident (round-robin victim), so strict A,B,A,B arrival alternation
/// never degenerates into thrash the way a direct-mapped slot would. A
/// genuine overflow just costs a rebuild (counted as a miss), never
/// correctness. Each set (its four ways and victim cursor) is allocated
/// when a key first hashes into it: a router off the data path pays for
/// none, and a transit router on a few trees for the few sets it uses.
class FlowCache {
 public:
  static constexpr std::size_t kSets = 16;
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kSlots = kSets * kWays;

  /// The set `key` maps to.
  static std::size_t IndexOf(const FlowKey& key) {
    // FNV-1a over EVERY key field: flows that share (group, vif) but
    // differ in source or arrival mode are distinct concurrent streams,
    // and hashing them apart spreads them across sets.
    std::uint64_t h = 1469598103934665603ull;
    h = (h ^ key.group.bits()) * 1099511628211ull;
    h = (h ^ static_cast<std::uint64_t>(key.arrival_vif)) * 1099511628211ull;
    h = (h ^ key.arrival_src.bits()) * 1099511628211ull;
    h = (h ^ static_cast<std::uint64_t>(key.cbt_arrival)) * 1099511628211ull;
    // Top bits feed back so nearby addresses don't land in lockstep.
    h ^= h >> 33;
    return static_cast<std::size_t>(h & (kSets - 1));
  }

  /// Returns the way holding `key` if it is resident, otherwise the
  /// victim way the caller should rebuild into. The caller tells the
  /// cases apart exactly as before: `slot.valid && slot.key == key`.
  FlowSlot& SlotFor(const FlowKey& key) {
    std::unique_ptr<Set>& set = sets_[IndexOf(key)];
    if (set == nullptr) set = std::make_unique<Set>();
    std::array<FlowSlot, kWays>& ways = set->ways;
    for (std::size_t w = 0; w < kWays; ++w) {
      if (ways[w].valid && ways[w].key == key) return ways[w];
    }
    for (std::size_t w = 0; w < kWays; ++w) {
      if (!ways[w].valid) return ways[w];
    }
    // Every way is live with some other flow: rotate the victim so
    // alternating flows spread across the set instead of evicting each
    // other out of one slot.
    std::uint8_t& cursor = set->cursor;
    FlowSlot& victim = ways[cursor];
    cursor = static_cast<std::uint8_t>((cursor + 1) % kWays);
    return victim;
  }

  /// Drops every cached decision (crash/restart wipes the data plane).
  void Clear() {
    for (const std::unique_ptr<Set>& set : sets_) {
      if (set == nullptr) continue;
      for (FlowSlot& slot : set->ways) slot.valid = false;
    }
  }

  /// Live (valid) slots — the occupancy gauge.
  std::size_t Occupancy() const {
    std::size_t n = 0;
    ForEachValidSlot([&n](const FlowSlot&) { ++n; });
    return n;
  }

  /// Visits every valid slot, set by set and way by way (the coherence
  /// oracle iterates these).
  template <typename Fn>
  void ForEachValidSlot(Fn&& fn) const {
    for (const std::unique_ptr<Set>& set : sets_) {
      if (set == nullptr) continue;
      for (const FlowSlot& slot : set->ways) {
        if (slot.valid) fn(slot);
      }
    }
  }

 private:
  struct Set {
    std::array<FlowSlot, kWays> ways;
    std::uint8_t cursor = 0;  // next round-robin victim way
  };

  std::array<std::unique_ptr<Set>, kSets> sets_;  // null until first touched
};

}  // namespace cbt::core
