// CBT protocol configuration: the spec's default timer values (section 9)
// plus the optimization switches the experiments ablate.
#pragma once

#include "common/types.h"

namespace cbt::core {

/// Data-plane execution mode. Both resolve the forwarding decision with
/// CbtRouter::BuildFlowDecision. kFast memoizes it in a per-router flow
/// cache (generation-invalidated) and encodes each outgoing variant once
/// per hop; kSlow recomputes it on every packet and builds a separate copy
/// of the bytes for every output. Both produce byte-identical deliveries —
/// kSlow survives as the cache-off, copy-per-output differential
/// reference.
enum class DataplaneMode : std::uint8_t {
  kFast = 0,
  kSlow = 1,
};

/// Deliberate protocol defects for validating the causal-path checker
/// (src/check/): a mutated run must trip the expectation suite. Never
/// enabled by default; benches expose it behind --mutate.
enum class ProtocolMutation : std::uint8_t {
  kNone = 0,
  /// Suppress every FLUSH-TREE transmission (teardown and the section 2.7
  /// re-configuration flush): downstream routers are silently orphaned
  /// and only recover via their own echo timeout.
  kSuppressFlush = 1,
};

struct CbtConfig {
  // --- Section 9 default timers (all configurable per implementation). ---
  /// Time between successive CBT-ECHO-REQUESTs to parent.
  SimDuration echo_interval = 30 * kSecond;
  /// Retransmission time for a join-request when no ack received.
  SimDuration pend_join_interval = 10 * kSecond;
  /// Time to try joining a different core, or give up.
  SimDuration pend_join_timeout = 30 * kSecond;
  /// Remove transient state for a join that has not been acked.
  SimDuration expire_pending_join = 90 * kSecond;
  /// Time after which a silent parent is considered unreachable.
  SimDuration echo_timeout = 90 * kSecond;
  /// How often a parent checks when each child last spoke.
  SimDuration child_assert_interval = 90 * kSecond;
  /// Remove child information when silent this long.
  SimDuration child_assert_expire = 180 * kSecond;
  /// Scan all interfaces for group presence; if none, send QUIT.
  SimDuration iff_scan_interval = 300 * kSecond;
  /// Section 6.1: keep cycling cores for at most this long on reconnect.
  SimDuration reconnect_timeout = 90 * kSecond;

  // --- Retry counts. -------------------------------------------------------
  /// "some small number (typically 3) of re-tries" for unacked quits.
  int quit_retries = 3;

  // --- Behaviour switches (ablated by the benchmarks). ---------------------
  /// Native-mode forwarding (section 4) vs CBT-mode encapsulation
  /// (section 5) on tree interfaces.
  bool native_mode = true;
  /// Section 2.6 proxy-ack / G-DR optimization.
  bool enable_proxy_ack = true;
  /// Section 8.4 keepalive aggregation across groups sharing a parent.
  bool aggregate_echo = false;
  /// How long a proxy-ack "a G-DR covers this LAN" marker stays fresh
  /// before the D-DR re-originates a join to confirm it (our soft-state
  /// refinement of section 2.6; the draft leaves G-DR failure unhandled).
  SimDuration proxy_refresh_interval = 60 * kSecond;
  /// Delay before a flushed router with local members rejoins.
  SimDuration flush_rejoin_delay = 1 * kSecond;
  /// Section 2.5 (-03) proposal: multicast an IGMP join-confirmation
  /// onto member LANs once the D-DR's join is acknowledged, so hosts
  /// know the delivery tree is in place before sending.
  bool notify_hosts_on_join = true;

  /// Seeded protocol defect for checker validation (see ProtocolMutation).
  ProtocolMutation mutation = ProtocolMutation::kNone;

  /// Data-plane fast path (flow cache + encode-once); see DataplaneMode.
  DataplaneMode dataplane = DataplaneMode::kFast;

  /// Bracket the data-plane handlers with cycle stamps and accumulate
  /// them in RouterStats::dataplane_stage_cycles. Off by default: it is a
  /// measurement aid for bench_dataplane's hop-forwarding throughput, and
  /// the raw cycle counts are inherently nondeterministic.
  bool time_dataplane = false;
};

}  // namespace cbt::core
