#include "check/cbt_expectations.h"

#include <map>
#include <memory>

#include "netsim/simulator.h"

namespace cbt::check {

namespace {

constexpr SimDuration kSlack = 1 * kSecond;

Match Fsm(const char* name) {
  return Match().Kind(obs::TraceKind::kFsm).Name(name);
}
Match FsmB(const char* name) {
  return Fsm(name).Phase(obs::TracePhase::kBegin);
}
Match FsmE(const char* name) {
  return Fsm(name).Phase(obs::TracePhase::kEnd);
}

/// A nacked or silently dropped join restarts its expiry clock each time
/// the pending state re-forwards (section 5.3 nack handling cycles
/// cores), so the observable bound is a small multiple of the base
/// lifetime, not the lifetime itself. Three cycles covers the nack
/// chains the soak topologies produce.
constexpr int kJoinCycles = 3;

}  // namespace

std::function<std::int32_t(Ipv4Address)> MakeAddressResolver(
    const netsim::Simulator& sim) {
  auto table = std::make_shared<std::map<std::uint32_t, std::int32_t>>();
  const auto count = static_cast<std::int32_t>(sim.node_count());
  for (std::int32_t n = 0; n < count; ++n) {
    for (const netsim::Interface& iface : sim.node(NodeId(n)).interfaces) {
      (*table)[iface.address.bits()] = n;
    }
  }
  return [table](Ipv4Address addr) -> std::int32_t {
    const auto it = table->find(addr.bits());
    return it == table->end() ? -1 : it->second;
  };
}

std::vector<Expectation> GenericFaultSuite() {
  std::vector<Expectation> suite;

  // Every injected fault span is repaired on schedule: the chaos Begin
  // carries its duration in arg_b and its plan index in txn.
  suite.push_back(
      Expectation::Eventually(
          "chaos-span-pairing",
          Match().Kind(obs::TraceKind::kChaos).Phase(obs::TracePhase::kBegin),
          0)
          .DeadlineFromArgB(kSlack)
          .Outcome(Match()
                       .Kind(obs::TraceKind::kChaos)
                       .Phase(obs::TracePhase::kEnd)
                       .SameTxn())
          .Describe("every injected fault is repaired at its planned time"));

  // A crashed node is silent until its restart marker: any protocol or
  // IGMP event from it in between means state survived the crash.
  suite.push_back(
      Expectation::Never(
          "crash-silence", Fsm("crash"), Fsm("restart").SameNode(),
          Match().SameNode().Where([](const obs::TraceEvent& c,
                                      const obs::TraceEvent&) {
            return c.kind == obs::TraceKind::kFsm ||
                   c.kind == obs::TraceKind::kPacket ||
                   c.kind == obs::TraceKind::kIgmp;
          }))
          .Describe("a crashed node emits nothing until it restarts"));

  return suite;
}

std::vector<Expectation> CbtExpectationSuite(const CbtSuiteOptions& options) {
  const core::CbtConfig& c = options.config;
  std::vector<Expectation> suite = GenericFaultSuite();

  // --- Chaos hooks actually reach the routers (wiring sanity). -------------
  suite.push_back(
      Expectation::Eventually("crash-hook-fired",
                              Match()
                                  .Kind(obs::TraceKind::kChaos)
                                  .Name("node-crash")
                                  .Phase(obs::TracePhase::kBegin),
                              kSlack)
          .Outcome(Fsm("crash").SameNode())
          .Describe("an injected node-crash reaches the router's Crash()"));
  suite.push_back(
      Expectation::Eventually("restart-hook-fired",
                              Match()
                                  .Kind(obs::TraceKind::kChaos)
                                  .Name("node-crash")
                                  .Phase(obs::TracePhase::kEnd),
                              kSlack)
          .Outcome(Fsm("restart").SameNode())
          .Describe("a repaired node-crash reaches the router's Restart()"));

  // --- Join transactions resolve (sections 2.4, 6.1, 6.2). -----------------
  // Every join span closes: established / proxy-acked / failed /
  // loop-abort / superseded, all carrying the Begin's txn. A crash of the
  // joining node waives (the restart path re-originates a fresh txn).
  const SimDuration join_slack = c.pend_join_interval + kSlack;
  suite.push_back(
      Expectation::Eventually("join-resolves-fresh", FsmB("join").ArgB(0),
                              kJoinCycles * c.expire_pending_join + join_slack)
          .Outcome(FsmE("join").SameTxn())
          .Waiver(Fsm("crash").SameNode())
          .Describe("a fresh locally-originated join reaches a terminal "
                    "outcome within its expiry budget"));
  suite.push_back(
      Expectation::Eventually("join-resolves-reconnect", FsmB("join").ArgB(1),
                              kJoinCycles * c.reconnect_timeout + join_slack)
          .Outcome(FsmE("join").SameTxn())
          .Waiver(Fsm("crash").SameNode())
          .Describe("a section 6.1 reconnect join resolves within the "
                    "reconnect budget"));
  suite.push_back(
      Expectation::Eventually("join-resolves-core-rejoin", FsmB("join").ArgB(2),
                              kJoinCycles * c.expire_pending_join + join_slack)
          .Outcome(FsmE("join").SameTxn())
          .Waiver(Fsm("crash").SameNode())
          .Describe("a restarted core's rejoin toward the primary resolves"));

  // --- Parent loss is acted on immediately (section 6.1). ------------------
  // StartReconnect runs in the same event: the router either starts a
  // reconnect join, anchors as a core, or tears down for lack of routes.
  suite.push_back(
      Expectation::Eventually("reconnect-after-parent-loss",
                              Fsm("parent-lost"), kSlack)
          .Outcome(FsmB("join").SameNode().SameGroup())
          .Outcome(Fsm("core-anchored").SameNode().SameGroup())
          .Outcome(Fsm("teardown").SameNode().SameGroup())
          .Waiver(Fsm("crash").SameNode())
          .Waiver(FsmE("join").SameNode().SameGroup())
          .Waiver(Fsm("flushed").SameNode().SameGroup())
          .Waiver(FsmB("quit").SameNode().SameGroup())
          .Describe("echo timeout triggers reconnect, core anchoring, or "
                    "teardown at once"));

  // --- Section 6.3 loop detection falls back, not livelocks. ---------------
  // A REJOIN-NACTIVE with surviving tree state (arg_a=1) must produce a
  // fresh join attempt (or resolve some other way) within one pending
  // cycle.
  suite.push_back(
      Expectation::Eventually(
          "loop-detect-fallback", Fsm("loop-detected").ArgA(1),
          c.pend_join_interval + c.pend_join_timeout + kSlack)
          .Outcome(FsmB("join").SameNode().SameGroup())
          .Outcome(Fsm("core-anchored").SameNode().SameGroup())
          .Outcome(Fsm("branch-up").SameNode().SameGroup())
          .Outcome(Fsm("teardown").SameNode().SameGroup())
          .Waiver(Fsm("crash").SameNode())
          .Waiver(Fsm("flushed").SameNode().SameGroup())
          .Waiver(FsmB("quit").SameNode().SameGroup())
          .Waiver(FsmE("quit").SameNode().SameGroup())
          .Waiver(FsmE("join").SameNode().SameGroup())
          .Describe("section 6.3 loop detection retries the join rather "
                    "than looping"));

  // --- Flush handling (section 2.7 / 5.6). ---------------------------------
  // A flushed router with local members schedules and executes a rejoin.
  suite.push_back(
      Expectation::Eventually("flush-rejoin",
                              Fsm("flushed").Detail("rejoin-scheduled"),
                              c.flush_rejoin_delay + kSlack)
          .Outcome(FsmB("join").SameNode().SameGroup())
          .Outcome(Fsm("core-anchored").SameNode().SameGroup())
          .Outcome(Fsm("branch-up").SameNode().SameGroup())
          .Outcome(FsmE("join").SameNode().SameGroup())
          .Waiver(Fsm("crash").SameNode())
          .Describe("a flushed router with members rejoins after "
                    "flush_rejoin_delay"));

  // --- Quit transactions resolve (section 2.7). ----------------------------
  suite.push_back(
      Expectation::Eventually(
          "quit-completes", FsmB("quit"),
          static_cast<SimDuration>(c.quit_retries + 1) * c.pend_join_interval +
              kSlack)
          .Outcome(FsmE("quit").SameTxn())
          .Waiver(Fsm("crash").SameNode())
          .Describe("a quit is acked, given up, or superseded within its "
                    "retry budget"));

  // --- Teardown notifies the children it strands. --------------------------
  // CbtRouter::TearDown flushes the children in the same event as the
  // teardown/flush decision, so the evidence shares the trigger's
  // timestamp. This pair is the seeded-mutation detector: --mutate
  // suppress-flush kills exactly these flush-sent events.
  suite.push_back(
      Expectation::Eventually("teardown-notifies-children",
                              Fsm("teardown").ArgBNonZero(), 0)
          .Outcome(Fsm("flush-sent").SameNode().SameGroup())
          .Describe("a teardown with children sends FLUSH-TREE downstream"));
  suite.push_back(
      Expectation::Eventually("flush-notifies-children",
                              Fsm("flushed").ArgBNonZero(), 0)
          .Outcome(Fsm("flush-sent").SameNode().SameGroup())
          .Describe("a flushed router propagates FLUSH-TREE to its own "
                    "children"));

  // --- Cross-node flush propagation (needs the address resolver). ----------
  // Every FLUSH-TREE sent to a live child is eventually acted on at that
  // child — it observes the flush, loses the parent on its own, or is
  // already quitting/detached (the lookback covers a stale child entry
  // the parent had not yet expired).
  if (options.node_of) {
    const auto node_of = options.node_of;
    const auto at_child = [node_of](const obs::TraceEvent& cand,
                                    const obs::TraceEvent& trig) {
      return cand.node == node_of(Ipv4Address(
                              static_cast<std::uint32_t>(trig.arg_a))) &&
             cand.group == trig.group;
    };
    suite.push_back(
        Expectation::Eventually(
            "flush-propagation",
            Fsm("flush-sent")
                .Where([node_of](const obs::TraceEvent& e,
                                 const obs::TraceEvent&) {
                  return node_of(Ipv4Address(
                             static_cast<std::uint32_t>(e.arg_a))) >= 0;
                }),
            c.echo_timeout + c.echo_interval + kSlack)
            .Lookback(c.child_assert_expire + c.child_assert_interval)
            .Outcome(Fsm("flushed").Where(at_child).Where(
                [](const obs::TraceEvent& cand, const obs::TraceEvent& trig) {
                  return cand.arg_a == trig.arg_b;
                }))
            .Outcome(Fsm("parent-lost").Where(at_child).Where(
                [](const obs::TraceEvent& cand, const obs::TraceEvent& trig) {
                  return cand.arg_a == trig.arg_b;
                }))
            .Outcome(FsmB("quit").Where(at_child).Where(
                [](const obs::TraceEvent& cand, const obs::TraceEvent& trig) {
                  return cand.arg_a == trig.arg_b;
                }))
            .Waiver(Fsm("crash").Where(at_child))
            .Waiver(Fsm("loop-detected").Where(at_child))
            .Waiver(Fsm("teardown").Where(at_child))
            .Describe("a FLUSH-TREE to a child is observed there, or the "
                      "child independently detached"));
  }

  // --- Attach ordering (section 2.4): ack before adopt. --------------------
  // A router only adds a child for a group it is attached to (branch-up
  // or core anchoring), and nothing since broke that attachment. QUIT
  // Begin is deliberately not an invalidator: acking joins while a quit
  // is pending is legal (the quit may be superseded).
  suite.push_back(
      Expectation::PrecededBy("ack-before-attach", Fsm("child-added"))
          .Outcome(Fsm("branch-up").SameNode().SameGroup())
          .Outcome(Fsm("core-anchored").SameNode().SameGroup())
          .Invalidator(Fsm("flushed").SameNode().SameGroup())
          .Invalidator(Fsm("teardown").SameNode().SameGroup())
          .Invalidator(FsmE("quit").SameNode().SameGroup())
          .Invalidator(Fsm("crash").SameNode())
          .Describe("a child is only adopted while the adopter is on-tree"));

  // --- Hitless core migration (make-before-break). -------------------------
  // The migrator may never start draining the old anchor until the new
  // primary is attached to the old tree: drain-old must be preceded by
  // join-new under the same migration txn.
  suite.push_back(
      Expectation::PrecededBy("migrate-join-before-drain",
                              Fsm("migrate-drain-old"))
          .Outcome(Fsm("migrate-join-new").SameTxn())
          .Describe("a migration drains the old core only after the new "
                    "primary joined the old tree"));
  // Zero data loss: no watched receiver reports a delivery gap between a
  // migration's start and its completion.
  suite.push_back(
      Expectation::Never("migrate-hitless", FsmB("migrate"),
                         FsmE("migrate").SameTxn(),
                         Match()
                             .Kind(obs::TraceKind::kInvariant)
                             .Name("deliver-gap")
                             .SameGroup())
          .Describe("a live core migration never drops delivered data"));
  // Migrations resolve: every Begin span reaches its End.
  suite.push_back(
      Expectation::Eventually("migrate-resolves", FsmB("migrate"),
                              240 * kSecond)
          .Outcome(FsmE("migrate").SameTxn())
          .Describe("a started core migration runs to a terminal outcome"));

  return suite;
}

}  // namespace cbt::check
