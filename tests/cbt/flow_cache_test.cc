// Data-plane fast path (flow cache + encode-once forwarding): cache
// counter behaviour, generation invalidation, the stale-cache negative
// probe, BuildFlowDecision against hand-derived decisions, and
// fast-vs-slow / batched-vs-per-receiver differentials that pin the fast
// path byte-identical to the cache-off, copy-per-output slow path.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/delivery_monitor.h"
#include "analysis/migration.h"
#include "cbt/domain.h"
#include "cbt/flow_cache.h"
#include "netsim/simulator.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::FaultProfile;
using netsim::MakeFigure1;
using netsim::MakeGrid;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 1, 2, 3);
constexpr const char* kMembers[] = {"A", "B", "C", "D", "E", "F",
                                    "G", "H", "I", "J", "K", "L"};

// ---------------------------------------------------------------------
// FlowCache unit behaviour (no simulator).
// ---------------------------------------------------------------------

FlowKey KeyFor(std::uint8_t octet) {
  FlowKey key;
  key.group = Ipv4Address(239, 9, 9, octet);
  key.arrival_vif = 1;
  key.arrival_src = Ipv4Address(10, 0, 0, octet);
  return key;
}

/// Installs `key` if absent; returns true when the probe was a hit.
bool Probe(FlowCache& cache, const FlowKey& key) {
  FlowSlot& slot = cache.SlotFor(key);
  const bool hit = slot.valid && slot.key == key;
  if (!hit) {
    slot.key = key;
    slot.valid = true;
  }
  return hit;
}

TEST(FlowCacheUnit, AlternatingFlowsStayResident) {
  // The direct-mapped regression: two flows arriving in strict A,B,A,B
  // alternation must both stay resident (a shared set holds four ways),
  // never evict each other per-packet.
  FlowCache cache;
  const FlowKey a = KeyFor(1);
  const FlowKey b = KeyFor(2);
  Probe(cache, a);
  Probe(cache, b);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(Probe(cache, a)) << "iteration " << i;
    EXPECT_TRUE(Probe(cache, b)) << "iteration " << i;
  }
}

TEST(FlowCacheUnit, FourInterleavedFlowsAllStayResident) {
  // Worst case: all four keys land in ONE set; four ways still hold
  // them all, so interleaved arrivals hit from the second round on.
  FlowCache cache;
  FlowKey keys[4] = {KeyFor(1), KeyFor(2), KeyFor(3), KeyFor(4)};
  for (const FlowKey& k : keys) Probe(cache, k);
  for (int round = 0; round < 50; ++round) {
    for (const FlowKey& k : keys) {
      EXPECT_TRUE(Probe(cache, k)) << "round " << round;
    }
  }
}

TEST(FlowCacheUnit, OverflowEvictsWithoutExceedingCapacity) {
  FlowCache cache;
  for (std::uint8_t i = 0; i < 200; ++i) {
    FlowKey key = KeyFor(i);
    key.arrival_vif = static_cast<VifIndex>(i % 7);
    Probe(cache, key);
  }
  EXPECT_LE(cache.Occupancy(), FlowCache::kSlots);
  EXPECT_GT(cache.Occupancy(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.Occupancy(), 0u);
}

TEST(FlowCacheUnit, UnusedCacheIsEmpty) {
  const FlowCache cache;
  EXPECT_EQ(cache.Occupancy(), 0u);
  std::size_t visited = 0;
  cache.ForEachValidSlot([&visited](const FlowSlot&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

/// The first `count` keys (in KeyFor order) that hash into `set`.
std::vector<FlowKey> KeysInSet(std::size_t set, std::size_t count) {
  std::vector<FlowKey> keys;
  for (int octet = 0; octet < 256 && keys.size() < count; ++octet) {
    const FlowKey key = KeyFor(static_cast<std::uint8_t>(octet));
    if (FlowCache::IndexOf(key) == set) keys.push_back(key);
  }
  return keys;
}

TEST(FlowCacheUnit, FullSetEvictsRoundRobin) {
  // Five flows in one four-way set: the first four fill ways 0..3 in
  // order, then each miss evicts the next way round, starting at way 0.
  const std::vector<FlowKey> keys = KeysInSet(FlowCache::IndexOf(KeyFor(1)), 5);
  ASSERT_EQ(keys.size(), 5u);
  FlowCache cache;
  // One SlotFor per arrival, as the router makes: a miss on a full set
  // advances the victim cursor.
  const auto install = [&cache](const FlowKey& key) {
    FlowSlot& slot = cache.SlotFor(key);
    EXPECT_FALSE(slot.valid && slot.key == key);
    slot.key = key;
    slot.valid = true;
    return &slot;
  };
  std::vector<const FlowSlot*> ways;
  for (std::size_t i = 0; i < 4; ++i) ways.push_back(install(keys[i]));
  // k4 evicts k0 (way 0), k0 evicts k1 (way 1), ... k2 evicts k3 (way
  // 3); the cursor wraps, so k3 evicts k4 (way 0) and k4 evicts k0 (way 1).
  const std::size_t order[] = {4, 0, 1, 2, 3, 4};
  for (std::size_t step = 0; step < std::size(order); ++step) {
    EXPECT_EQ(install(keys[order[step]]), ways[step % 4]) << "step " << step;
    EXPECT_EQ(cache.Occupancy(), 4u);
  }
  // The ways now hold k3, k4, k1, k2: k0 is the one flow out.
  for (const std::size_t i : {1, 2, 3, 4}) {
    EXPECT_TRUE(Probe(cache, keys[i])) << "k" << i;
  }
  EXPECT_FALSE(Probe(cache, keys[0]));
}

TEST(FlowCacheUnit, ClearInvalidatesEverySet) {
  FlowCache cache;
  std::vector<FlowKey> keys;
  for (std::size_t set = 0; set < FlowCache::kSets; set += 5) {
    for (const FlowKey& key : KeysInSet(set, 2)) keys.push_back(key);
  }
  ASSERT_EQ(keys.size(), 8u);  // two flows in each of sets 0, 5, 10, 15
  for (const FlowKey& key : keys) Probe(cache, key);
  EXPECT_EQ(cache.Occupancy(), keys.size());

  cache.Clear();
  EXPECT_EQ(cache.Occupancy(), 0u);
  std::size_t visited = 0;
  cache.ForEachValidSlot([&visited](const FlowSlot&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  for (const FlowKey& key : keys) EXPECT_FALSE(Probe(cache, key));
}

// ---------------------------------------------------------------------
// Cache counters against a live tree (Figure 1).
// ---------------------------------------------------------------------

class FlowCacheFixture : public ::testing::Test {
 protected:
  FlowCacheFixture() : topo(MakeFigure1(sim)) {
    domain.emplace(sim, topo, CbtConfig{});  // dataplane defaults to kFast
    domain->RegisterGroup(kGroup, {topo.node("R4"), topo.node("R9")});
    domain->Start();
    sim.RunUntil(kSecond);
  }

  void JoinAll() {
    for (const char* h : kMembers) domain->host(h).JoinGroup(kGroup);
    sim.RunUntil(30 * kSecond);
  }

  std::uint64_t SumStat(std::uint64_t RouterStats::* field) {
    std::uint64_t total = 0;
    for (const auto& id : domain->router_ids()) {
      total += domain->router(id).stats().*field;
    }
    return total;
  }

  void ResetStats() {
    for (const auto& id : domain->router_ids()) {
      domain->router(id).mutable_stats() = RouterStats{};
    }
  }

  Simulator sim{1};
  Topology topo;
  std::optional<CbtDomain> domain;
};

TEST_F(FlowCacheFixture, RepeatSendsHitTheCache) {
  JoinAll();
  const std::vector<std::uint8_t> payload{'p', 'k', 't'};
  domain->host("G").SendToGroup(kGroup, payload);
  sim.RunUntil(31 * kSecond);
  const std::uint64_t misses_after_first =
      SumStat(&RouterStats::dataplane_cache_misses);
  EXPECT_GT(misses_after_first, 0u) << "first packet must populate";
  EXPECT_GT(SumStat(&RouterStats::dataplane_cache_occupancy), 0u);

  // Same flow again: every on-tree router resolves from cache.
  domain->host("G").SendToGroup(kGroup, payload);
  sim.RunUntil(32 * kSecond);
  EXPECT_GT(SumStat(&RouterStats::dataplane_cache_hits), 0u);
  EXPECT_EQ(SumStat(&RouterStats::dataplane_cache_misses),
            misses_after_first)
      << "repeat of an identical flow must not rebuild decisions";
}

TEST_F(FlowCacheFixture, MembershipChangeInvalidatesCachedFlows) {
  // Join everyone but L, warm the cache, then let L join: the routers
  // whose FIB entry (or IGMP state) changed must re-resolve the flow —
  // counted as invalidates/misses, never served stale.
  for (const char* h : kMembers) {
    if (std::string(h) != "L") domain->host(h).JoinGroup(kGroup);
  }
  sim.RunUntil(30 * kSecond);
  const std::vector<std::uint8_t> payload{'x'};
  domain->host("G").SendToGroup(kGroup, payload);
  sim.RunUntil(31 * kSecond);

  ResetStats();
  domain->host("L").JoinGroup(kGroup);
  sim.RunUntil(40 * kSecond);
  domain->host("G").SendToGroup(kGroup, payload);
  sim.RunUntil(41 * kSecond);

  EXPECT_EQ(domain->host("L").ReceivedCount(kGroup), 1u);
  EXPECT_GT(SumStat(&RouterStats::dataplane_cache_invalidates) +
                SumStat(&RouterStats::dataplane_cache_misses),
            0u)
      << "a tree mutation must force at least one re-resolve";
}

TEST_F(FlowCacheFixture, StaleCacheWithoutGenerationBumpIsDetected) {
  // The negative probe for the invalidation contract: edit a FIB entry
  // behind the generation counter's back and FlowCacheCoherent() must
  // report the cache stale; bumping the generation (what every real
  // mutation site does) clears it because the slot would re-resolve.
  JoinAll();
  const std::vector<std::uint8_t> payload{'x'};
  domain->host("G").SendToGroup(kGroup, payload);
  sim.RunUntil(31 * kSecond);

  CbtRouter& r4 = domain->router(topo.node("R4"));
  EXPECT_TRUE(r4.FlowCacheCoherent());

  FibEntry* entry = r4.mutable_fib().Find(kGroup);
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->children.empty());
  entry->children.clear();  // forwarding-visible edit, NO Touch()
  EXPECT_FALSE(r4.FlowCacheCoherent())
      << "stale decision survived a silent FIB edit undetected";

  entry->Touch();
  EXPECT_TRUE(r4.FlowCacheCoherent())
      << "a generation bump must mark the slot for re-resolution";
}

// ---------------------------------------------------------------------
// BuildFlowDecision against decisions derived by hand from sections 4
// and 5 (the slow path calls it too, so nothing else cross-checks it).
// ---------------------------------------------------------------------

/// One router X with five interfaces, in vif order:
///   vif 0 "up"    native;   parent P
///   vif 1 "cbt1"  CBT mode; children C1 and C2, member host M1
///   vif 2 "nat"   native;   child C3, member host M2
///   vif 3 "mem"   native;   member host M3 only
///   vif 4 "cbt4"  CBT mode; child C4
/// P and C1..C4 are bare nodes without agents, so X is the IGMP querier,
/// hence the DR, on every LAN. The FIB entries are written by hand, so
/// every expected decision follows from the forwarding rules alone.
class HandDerivedDecision : public ::testing::Test {
 protected:
  HandDerivedDecision() {
    x = sim.AddNode("X", true);
    topo.routers = {x};
    topo.nodes["X"] = x;
    const char* lans[] = {"up", "cbt1", "nat", "mem", "cbt4"};
    for (std::uint8_t i = 0; i < 5; ++i) {
      const SubnetId lan = sim.AddSubnet(
          lans[i], SubnetAddress::FromPrefix(Ipv4Address(10, 90, i, 0), 24));
      EXPECT_EQ(sim.Attach(x, lan), i);
      topo.subnets[lans[i]] = lan;
    }
    p = Neighbour("P", "up");
    c1 = Neighbour("C1", "cbt1");
    c2 = Neighbour("C2", "cbt1");
    c3 = Neighbour("C3", "nat");
    c4 = Neighbour("C4", "cbt4");
    netsim::AttachHost(sim, topo, topo.subnet("cbt1"), "M1");
    netsim::AttachHost(sim, topo, topo.subnet("nat"), "M2");
    netsim::AttachHost(sim, topo, topo.subnet("mem"), "M3");

    domain.emplace(sim, topo);
    TunnelConfig& tunnels = domain->router(x).tunnel_config();
    tunnels.SetVifMode(1, VifMode::kCbtTunnel);
    tunnels.SetVifMode(4, VifMode::kCbtTunnel);
    domain->RegisterGroup(kGroup, {x});
    domain->Start();
    for (const char* m : {"M1", "M2", "M3"}) domain->host(m).JoinGroup(kGroup);
    sim.RunUntil(10 * kSecond);
  }

  /// Adds an agent-less router on `lan`; returns its address there.
  Ipv4Address Neighbour(const char* name, const char* lan) {
    const NodeId n = sim.AddNode(name, true);
    return sim.interface(n, sim.Attach(n, topo.subnet(lan))).address;
  }

  /// Parent P (vif 0); children C1, C2 (vif 1), C3 (vif 2), C4 (vif 4).
  FibEntry NativeParent() const {
    FibEntry e;
    e.group = kGroup;
    e.parent_vif = 0;
    e.parent_address = p;
    e.AddChild(c1, 1, 0);
    e.AddChild(c2, 1, 0);
    e.AddChild(c3, 2, 0);
    e.AddChild(c4, 4, 0);
    return e;
  }

  /// Parent C4 over the CBT vif 4; children C1, C2 (vif 1), C3 (vif 2).
  FibEntry CbtParent() const {
    FibEntry e;
    e.group = kGroup;
    e.parent_vif = 4;
    e.parent_address = c4;
    e.AddChild(c1, 1, 0);
    e.AddChild(c2, 1, 0);
    e.AddChild(c3, 2, 0);
    return e;
  }

  std::string Decide(const FibEntry& entry, VifIndex vif, Ipv4Address src,
                     bool cbt_arrival) {
    return Describe(domain->router(x).BuildFlowDecision(
        entry, FlowKey{kGroup, vif, src, cbt_arrival}));
  }

  /// A CBT-mode output from X's own address on `vif` to `dst`.
  FlowCbtTarget Cbt(VifIndex vif, Ipv4Address dst) const {
    return {vif, sim.interface(x, vif).address, dst};
  }

  static std::string Describe(const FlowDecision& d) {
    std::ostringstream os;
    os << "native{";
    for (const VifIndex v : d.native_vifs) os << ' ' << v;
    os << " } cbt{";
    for (const FlowCbtTarget& t : d.cbt_targets) {
      os << ' ' << t.vif << ':' << t.src.ToString() << '>' << t.dst.ToString();
    }
    os << " } member{";
    for (const VifIndex v : d.member_vifs) os << ' ' << v;
    os << " }";
    return os.str();
  }

  Simulator sim{1};
  Topology topo;
  NodeId x;
  Ipv4Address p, c1, c2, c3, c4;
  std::optional<CbtDomain> domain;
};

TEST_F(HandDerivedDecision, ParentArrivalIsExcluded) {
  // From the native parent: nothing goes back up. vif 1 carries two
  // children (group-addressed CBT multicast), vif 4 one (unicast to
  // C4), vif 2 one native multicast that also serves M2's LAN; M1's LAN
  // still needs its native copy because vif 1's tree output is
  // encapsulated.
  EXPECT_EQ(Decide(NativeParent(), 0, p, false),
            Describe({{2}, {Cbt(1, kGroup), Cbt(4, c4)}, {1, 3}}));
  // From the CBT-mode parent C4: no target on vif 4 at all.
  EXPECT_EQ(Decide(CbtParent(), 4, c4, true),
            Describe({{2}, {Cbt(1, kGroup)}, {1, 3}}));
  // The exclusion is by (vif, address): another sender on vif 4 is not
  // the parent, so the parent gets its unicast.
  EXPECT_EQ(Decide(CbtParent(), 4, Ipv4Address(10, 90, 4, 200), true),
            Describe({{2}, {Cbt(4, c4), Cbt(1, kGroup)}, {1, 3}}));
}

TEST_F(HandDerivedDecision, CbtVifUnicastsToASoleChildElseMulticasts) {
  // Native arrival from C3: both children on vif 1 remain, so vif 1
  // gets one CBT multicast to the group; vif 4's single child C4 gets a
  // unicast. The parent target comes first.
  EXPECT_EQ(Decide(NativeParent(), 2, c3, false),
            Describe({{0}, {Cbt(1, kGroup), Cbt(4, c4)}, {1, 3}}));
  EXPECT_EQ(Decide(CbtParent(), 2, c3, false),
            Describe({{}, {Cbt(4, c4), Cbt(1, kGroup)}, {1, 3}}));
  // Arrival from C1 over vif 1 leaves C2 as the sole child there: a
  // unicast to C2 instead of the group address.
  EXPECT_EQ(Decide(NativeParent(), 1, c1, true),
            Describe({{0, 2}, {Cbt(1, c2), Cbt(4, c4)}, {1, 3}}));
}

TEST_F(HandDerivedDecision, MemberLanCoveredByNativeTreeVifIsDeduplicated) {
  // With child C3, vif 2's native tree multicast already reaches M2.
  EXPECT_EQ(Decide(NativeParent(), 0, p, false),
            Describe({{2}, {Cbt(1, kGroup), Cbt(4, c4)}, {1, 3}}));
  // Without it, vif 2 is a plain member LAN.
  FibEntry no_c3 = NativeParent();
  ASSERT_TRUE(no_c3.RemoveChild(c3));
  EXPECT_EQ(Decide(no_c3, 0, p, false),
            Describe({{}, {Cbt(1, kGroup), Cbt(4, c4)}, {1, 2, 3}}));
}

TEST_F(HandDerivedDecision, ArrivalVifSkipDependsOnArrivalMode) {
  // Native arrival on vif 2: the datagram is already on that wire, so
  // vif 2 gets neither a tree copy nor a member copy.
  EXPECT_EQ(Decide(NativeParent(), 2, c3, false),
            Describe({{0}, {Cbt(1, kGroup), Cbt(4, c4)}, {1, 3}}));
  // CBT arrival on vif 2: still no tree copy back out of vif 2, but its
  // hosts never saw the encapsulated packet, so the member LAN is served.
  EXPECT_EQ(Decide(NativeParent(), 2, c3, true),
            Describe({{0}, {Cbt(1, kGroup), Cbt(4, c4)}, {1, 2, 3}}));
  // Same on a CBT-mode vif: arrival on vif 1 keeps M1's LAN.
  EXPECT_EQ(Decide(NativeParent(), 1, c1, true),
            Describe({{0, 2}, {Cbt(1, c2), Cbt(4, c4)}, {1, 3}}));
}

// ---------------------------------------------------------------------
// Differentials: the fast path must be byte-identical to the slow
// path, and batched delivery to per-receiver delivery.
// ---------------------------------------------------------------------

struct RunOutcome {
  /// One line per delivered packet per member, in delivery order:
  /// receiver, source, sim-time, size, payload head. Equality of these
  /// vectors is equality of every delivered byte AND its timing.
  std::vector<std::string> events;
  std::uint64_t arena_makes = 0;
};

RunOutcome RunFigure1Scenario(DataplaneMode mode, std::uint32_t seed,
                              bool per_receiver = false) {
  Simulator sim{seed};
  Topology topo = MakeFigure1(sim);
  if (per_receiver) {
    // A fault profile that is "on" (Any()) yet inert: every draw in the
    // per-receiver fan-out short-circuits on a zero rate or a zero
    // jitter, so it consumes no RNG and adds no delay. It only steers
    // each subnet off the batched path.
    FaultProfile inert;
    inert.reorder_rate = 1.0;
    inert.reorder_jitter = 0;
    for (std::size_t i = 0; i < sim.subnet_count(); ++i) {
      sim.SetSubnetFaults(SubnetId(static_cast<std::int32_t>(i)), inert);
    }
  }
  CbtConfig config;
  config.dataplane = mode;
  CbtDomain domain(sim, topo, config);
  domain.RegisterGroup(kGroup, {topo.node("R4"), topo.node("R9")});
  domain.Start();
  sim.RunUntil(kSecond);

  for (const char* h : kMembers) domain.host(h).JoinGroup(kGroup);
  sim.RunUntil(30 * kSecond);

  // Seed-rotated churn: three member senders, a non-member sender (the
  // DR-relay / encapsulation path), a leave, then more traffic over the
  // mutated tree so invalidation is exercised, not just cold fills.
  auto payload = [](std::uint32_t tag) {
    return std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(tag >> 24), static_cast<std::uint8_t>(tag >> 16),
        static_cast<std::uint8_t>(tag >> 8), static_cast<std::uint8_t>(tag)};
  };
  for (std::uint32_t i = 0; i < 3; ++i) {
    domain.host(kMembers[(seed + 4 * i) % 12]).SendToGroup(kGroup,
                                                           payload(100 + i));
  }
  auto& outsider = domain.AddHost(topo.subnet("S12"), "outsider");
  outsider.SendToGroup(kGroup, payload(200));
  sim.RunUntil(45 * kSecond);

  domain.host(kMembers[seed % 12]).LeaveGroup(kGroup);
  sim.RunUntil(55 * kSecond);
  for (std::uint32_t i = 0; i < 2; ++i) {
    domain.host(kMembers[(seed + 1 + 5 * i) % 12]).SendToGroup(kGroup,
                                                               payload(300 + i));
  }
  sim.RunUntil(70 * kSecond);

  RunOutcome out;
  for (const char* h : kMembers) {
    for (const HostAgent::Received& r : domain.host(h).received()) {
      std::ostringstream line;
      line << h << " src=" << r.src.ToString() << " t=" << r.time
           << " n=" << r.bytes << " head=" << r.payload_head;
      out.events.push_back(line.str());
    }
  }
  out.arena_makes = sim.packet_arena().total_makes();
  return out;
}

TEST(DataplaneDifferential, FastMatchesSlowByteForByteAcrossFiveSeeds) {
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    const RunOutcome fast = RunFigure1Scenario(DataplaneMode::kFast, seed);
    const RunOutcome slow = RunFigure1Scenario(DataplaneMode::kSlow, seed);
    ASSERT_FALSE(fast.events.empty()) << "seed " << seed;
    EXPECT_EQ(fast.events, slow.events) << "seed " << seed;
    // Encode-once + zero-copy transit: the fast leg must stage strictly
    // fewer arena buffers for the identical delivered stream.
    EXPECT_LT(fast.arena_makes, slow.arena_makes) << "seed " << seed;
  }
}

TEST(DataplaneDifferential, BatchedDeliveryMatchesPerReceiver) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    const RunOutcome batched = RunFigure1Scenario(DataplaneMode::kFast, seed);
    const RunOutcome per_rx =
        RunFigure1Scenario(DataplaneMode::kFast, seed, /*per_receiver=*/true);
    ASSERT_FALSE(batched.events.empty()) << "seed " << seed;
    EXPECT_EQ(batched.events, per_rx.events) << "seed " << seed;
  }
}

// Live core migration under a sequence-stamped stream: the fast path
// must deliver the identical gap-free stream the slow path does while
// the tree re-homes — the harshest invalidation workload we have.
RunOutcome RunMigrationScenario(DataplaneMode mode) {
  Simulator sim(7);
  Topology topo = MakeGrid(sim, 4, 4);
  const auto router_at = [&](int x, int y) {
    return topo.routers[static_cast<std::size_t>(y * 4 + x)];
  };
  const auto lan_at = [&](int x, int y) {
    return topo.router_lans[static_cast<std::size_t>(y * 4 + x)];
  };
  CbtConfig config;
  config.dataplane = mode;
  CbtDomain domain(sim, topo, config);
  const NodeId old_core = router_at(0, 0);
  const NodeId new_core = router_at(3, 3);
  domain.RegisterGroup(kGroup, {old_core});
  domain.Start();
  sim.RunUntil(kSecond);

  HostAgent& src = domain.AddHost(lan_at(0, 0), "src");
  HostAgent& rx_a = domain.AddHost(lan_at(3, 0), "rx-a");
  HostAgent& rx_b = domain.AddHost(lan_at(0, 3), "rx-b");
  for (HostAgent* h : {&src, &rx_a, &rx_b}) h->JoinGroup(kGroup);
  sim.RunUntil(sim.Now() + 20 * kSecond);

  analysis::DeliveryMonitor monitor(domain, kGroup);
  monitor.WatchReceiver(rx_a.id());
  monitor.WatchReceiver(rx_b.id());
  monitor.StartSender(src.id(), 500 * kMillisecond);
  sim.RunUntil(sim.Now() + 5 * kSecond);

  analysis::CoreMigrator migrator(domain);
  const auto report = migrator.Migrate(kGroup, {new_core});
  EXPECT_TRUE(report.ok) << report.error;
  sim.RunUntil(sim.Now() + 10 * kSecond);
  monitor.StopSender();
  EXPECT_EQ(monitor.TotalGaps(), 0u);

  RunOutcome out;
  for (const HostAgent* h : {&rx_a, &rx_b}) {
    for (const HostAgent::Received& r : h->received()) {
      std::ostringstream line;
      line << h->id().value() << " src=" << r.src.ToString() << " t=" << r.time
           << " n=" << r.bytes << " head=" << r.payload_head;
      out.events.push_back(line.str());
    }
  }
  out.arena_makes = sim.packet_arena().total_makes();
  return out;
}

TEST(DataplaneDifferential, FastMatchesSlowAcrossLiveCoreMigration) {
  const RunOutcome fast = RunMigrationScenario(DataplaneMode::kFast);
  const RunOutcome slow = RunMigrationScenario(DataplaneMode::kSlow);
  ASSERT_FALSE(fast.events.empty());
  EXPECT_EQ(fast.events, slow.events);
  EXPECT_LT(fast.arena_makes, slow.arena_makes);
}

}  // namespace
}  // namespace cbt::core
