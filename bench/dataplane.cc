// Data-plane fast path (E12): flow-cache + encode-once forwarding
// throughput vs the per-packet slow-path oracle.
//
// Each row builds a grid domain, joins `members` hosts per group, then
// pumps `packets` data packets per (sender, group) stream through the
// routers — non-member senders, so every packet crosses the full CBT
// data plane (DR relay toward the core, tree fan-out, member-LAN
// delivery). The same row runs twice, once per forwarding path
// (core::DataplaneMode::kFast / kSlow), and the bench itself asserts
// the two legs delivered identical traffic: every member host's
// received stream (group, source, time, size, sequence head) is folded
// into an FNV-1a digest that must match across legs, and both legs
// must end audit-clean. A digest mismatch exits 3 — the differential
// is a hard failure, not a report column.
//
// stdout carries only deterministic columns (sent/hops/delivered/
// digest/cache counters), so reruns with the same flags are
// byte-identical; wall-clock throughput (packets/sec, ns/hop, the
// fast-over-slow speedup) goes to stderr and — unless --deterministic —
// the BENCH_dataplane.json report.
//
// Three exit-3 gates, in decreasing order of CI robustness:
//   --min-copy-reduction N  every row must stage >= N times fewer arena
//                           buffers fast than slow. Deterministic (a
//                           structural property of the two paths), so it
//                           holds under sanitizers, --jobs and noisy
//                           shared runners alike.
//   --min-stage-speedup N   some row's cycle-counted forwarding-stage
//                           speedup must reach N. Excludes event-queue /
//                           parse costs both legs share; still wall-time
//                           based, so pair with --repeat and run with
//                           --jobs 1 on release runners.
//   --min-speedup N         some row's whole-sim wall speedup must reach
//                           N. Noisiest; meaningless under sanitizers or
//                           --jobs > 1, where wall clocks overlap.
// --routers N swaps the sweep for one ~N-router row.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "cbt/domain.h"
#include "common/cycle_clock.h"
#include "netsim/topologies.h"

namespace {

using namespace cbt;  // NOLINT

/// Group index -> multicast address (239.12.x.y — E12's block).
Ipv4Address GroupAddress(std::uint32_t g) {
  return Ipv4Address(239, 12, static_cast<std::uint8_t>((g >> 8) & 0xff),
                     static_cast<std::uint8_t>(g & 0xff));
}

/// Short query timers so membership is live well inside the warmup.
igmp::IgmpConfig DataplaneIgmpConfig() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

struct RowSpec {
  std::string label;
  int side = 8;                 // grid side; side*side routers
  std::uint32_t groups = 4;
  std::uint32_t senders = 2;    // non-member source hosts
  std::uint32_t members = 4;    // member hosts per group
  std::uint32_t packets = 100;  // packets per (sender, group) stream
  std::uint32_t payload_bytes = 1024;  // application payload per packet
  std::uint64_t seed = 1;
};

struct LegResult {
  std::uint64_t sent = 0;       // sender SendToGroup calls
  std::uint64_t delivered = 0;  // member-host receive records
  std::uint64_t hops = 0;       // forwarded_tree + delivered_lan + relayed
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidates = 0;
  std::uint64_t cache_occupancy = 0;
  std::uint64_t digest = 0;  // FNV-1a over every member's receive stream
  bool audit_clean = false;
  double wall_s = 0;  // traffic window only (warmup excluded)
  // Forwarding-stage cycle totals (CbtConfig::time_dataplane brackets):
  // the cost of the data-plane handlers alone, with the event queue,
  // datagram parsing and host-side processing excluded. This is the
  // "hop-forwarding throughput" the fast path actually optimizes.
  std::uint64_t stage_cycles = 0;
  std::uint64_t stage_calls = 0;
  // Arena buffer stagings during the traffic window: a deterministic,
  // structural count of per-packet copies (encode-once and zero-copy
  // transit shrink it; the slow path's vector round-trips inflate it).
  std::uint64_t arena_makes = 0;
};

struct RowResult {
  RowSpec spec;
  LegResult fast;
  LegResult slow;
  bool ran_fast = false;
  bool ran_slow = false;
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void FnvMix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

LegResult RunLeg(const RowSpec& spec, core::DataplaneMode dataplane) {
  LegResult leg;

  netsim::Simulator sim(spec.seed);
  netsim::Topology topo = netsim::MakeGrid(sim, spec.side, spec.side);

  core::CbtConfig cbt_config;
  cbt_config.dataplane = dataplane;
  // Both legs pay the same two-rdtsc bracket per hop, so the stage ratio
  // is conservative (the constant overhead shrinks it, never grows it).
  cbt_config.time_dataplane = true;
  core::CbtDomain domain(sim, topo, cbt_config, DataplaneIgmpConfig());

  const auto lan_count = static_cast<std::uint32_t>(topo.router_lans.size());
  for (std::uint32_t g = 0; g < spec.groups; ++g) {
    const std::uint32_t at = ((g + 1) * lan_count) / (spec.groups + 1);
    domain.RegisterGroup(GroupAddress(g),
                         {topo.routers[std::min(at, lan_count - 1)]});
  }

  // Member hosts spread across the grid, offset per group so trees
  // differ; creation order is the digest fold order.
  std::vector<core::HostAgent*> receivers;
  for (std::uint32_t g = 0; g < spec.groups; ++g) {
    for (std::uint32_t m = 0; m < spec.members; ++m) {
      const std::uint32_t lan =
          ((m * lan_count) / spec.members + g * 7) % lan_count;
      core::HostAgent& host = domain.AddHost(
          topo.router_lans[lan],
          "m" + std::to_string(g) + "_" + std::to_string(m));
      receivers.push_back(&host);
      const Ipv4Address group = GroupAddress(g);
      sim.Schedule(kSecond, [&host, group] { host.JoinGroup(group); });
    }
  }
  // Non-member senders on the tail LANs: every packet exercises the
  // off-tree relay before it ever reaches the shared tree.
  std::vector<core::HostAgent*> senders;
  for (std::uint32_t s = 0; s < spec.senders; ++s) {
    senders.push_back(&domain.AddHost(
        topo.router_lans[(lan_count - 1 - s) % lan_count],
        "src" + std::to_string(s)));
  }

  domain.Start();
  const SimDuration warmup = 30 * kSecond;
  sim.RunUntil(warmup);
  // Windowed measurement: drop warmup control traffic from every
  // counter the row reports.
  sim.ResetCounters();

  const SimDuration window = 60 * kSecond;
  const SimDuration period =
      std::max<SimDuration>(1, window / std::max<std::uint32_t>(1, spec.packets));
  std::vector<std::uint8_t> payload(std::max<std::uint32_t>(
      12, spec.payload_bytes));
  std::function<void(std::uint32_t, std::uint32_t, std::uint32_t)> pump =
      [&](std::uint32_t s, std::uint32_t g, std::uint32_t seq) {
        payload[0] = static_cast<std::uint8_t>(seq >> 24);
        payload[1] = static_cast<std::uint8_t>(seq >> 16);
        payload[2] = static_cast<std::uint8_t>(seq >> 8);
        payload[3] = static_cast<std::uint8_t>(seq);
        payload[4] = static_cast<std::uint8_t>(g >> 8);
        payload[5] = static_cast<std::uint8_t>(g);
        payload[6] = static_cast<std::uint8_t>(s >> 8);
        payload[7] = static_cast<std::uint8_t>(s);
        senders[s]->SendToGroup(GroupAddress(g), payload);
        ++leg.sent;
        if (seq + 1 < spec.packets) {
          sim.Schedule(period, [&pump, s, g, seq] { pump(s, g, seq + 1); });
        }
      };
  for (std::uint32_t s = 0; s < spec.senders; ++s) {
    for (std::uint32_t g = 0; g < spec.groups; ++g) {
      // Stagger streams inside one period so sends interleave.
      const std::uint32_t stream = s * spec.groups + g;
      sim.Schedule((period * stream) / (spec.senders * spec.groups),
                   [&pump, s, g] { pump(s, g, 0); });
    }
  }

  const std::uint64_t makes_before = sim.packet_arena().total_makes();
  const auto wall_start = std::chrono::steady_clock::now();
  sim.RunUntil(warmup + window);
  leg.arena_makes = sim.packet_arena().total_makes() - makes_before;
  leg.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_start)
                   .count();

  leg.audit_clean =
      analysis::RunUntilInvariantsHold(domain, sim.Now() + 60 * kSecond)
          .has_value();

  for (const NodeId id : domain.router_ids()) {
    const core::RouterStats& rs = domain.router(id).stats();
    leg.hops += rs.data_forwarded_tree + rs.data_delivered_lan +
                rs.data_nonmember_relayed;
    leg.cache_hits += rs.dataplane_cache_hits;
    leg.cache_misses += rs.dataplane_cache_misses;
    leg.cache_invalidates += rs.dataplane_cache_invalidates;
    leg.cache_occupancy += rs.dataplane_cache_occupancy;
    leg.stage_cycles += rs.dataplane_stage_cycles;
    leg.stage_calls += rs.dataplane_stage_calls;
  }

  // The cross-leg differential: fold every member's receive stream, in
  // receive order, into one digest. Fast and slow must agree bit for bit.
  std::uint64_t digest = kFnvOffset;
  for (const core::HostAgent* host : receivers) {
    for (const core::HostAgent::Received& r : host->received()) {
      FnvMix(digest, r.group.bits());
      FnvMix(digest, r.src.bits());
      FnvMix(digest, static_cast<std::uint64_t>(r.time));
      FnvMix(digest, static_cast<std::uint64_t>(r.bytes));
      FnvMix(digest, r.payload_head);
      ++leg.delivered;
    }
  }
  leg.digest = digest;
  return leg;
}

/// rdtsc ticks per second, measured against steady_clock over ~50 ms.
double MeasureCyclesPerSecond() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t c0 = CycleNow();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::milliseconds(50)) {
  }
  const std::uint64_t c1 = CycleNow();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return elapsed > 0 ? static_cast<double>(c1 - c0) / elapsed : 1e9;
}

std::string DigestHex(std::uint64_t digest) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << digest;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts("dataplane",
                      "flow-cache fast path vs slow-path forwarding oracle");
  opts.json_path = "BENCH_dataplane.json";
  std::string dataplane_name = "both";
  int routers = 0;       // >0: replace the sweep with one ~N-router row
  int packets = 0;       // >0: override packets per stream
  int payload_bytes = 0; // >0: override application payload size
  int members = 0;       // >0: override member hosts per group
  int min_speedup = 0;   // >0: require best-row speedup >= N (exit 3)
  int min_stage_speedup = 0;  // >0: same gate on the forwarding stage
  int min_copy_reduction = 0;  // >0: require slow/fast arena-copy ratio
  bool deterministic = false;
  opts.Str("dataplane", &dataplane_name,
           "legs to run: both (differential) | fast | slow");
  opts.Int("routers", &routers,
           "custom row: one ~N-router grid instead of the sweep");
  opts.Int("packets", &packets, "packets per (sender, group) stream");
  opts.Int("bytes", &payload_bytes, "application payload bytes per packet");
  opts.Int("members", &members, "member hosts per group");
  opts.Int("min-speedup", &min_speedup,
           "fail (exit 3) unless the largest row's fast-over-slow "
           "speedup reaches N (whole-sim wall clock; use --jobs 1)");
  opts.Int("min-stage-speedup", &min_stage_speedup,
           "fail (exit 3) unless some row's fast-over-slow "
           "FORWARDING-STAGE speedup reaches N (cycle-counted handlers "
           "only; the hop-forwarding throughput gate)");
  opts.Int("min-copy-reduction", &min_copy_reduction,
           "fail (exit 3) unless every row stages at least N times fewer "
           "arena buffers fast than slow (deterministic structural gate: "
           "immune to runner noise, sanitizers and --jobs)");
  opts.Flag("deterministic", &deterministic,
            "omit wall-clock throughput from the json report so stdout "
            "AND --json are byte-identical across reruns");
  opts.Parse(argc, argv);
  if (dataplane_name != "both" && dataplane_name != "fast" &&
      dataplane_name != "slow") {
    std::cerr << "bench_dataplane: unknown --dataplane '" << dataplane_name
              << "' (known: both fast slow)\n";
    return 2;
  }
  const bool run_fast = dataplane_name != "slow";
  const bool run_slow = dataplane_name != "fast";
  if ((min_speedup > 0 || min_stage_speedup > 0 || min_copy_reduction > 0) &&
      !(run_fast && run_slow)) {
    std::cerr << "bench_dataplane: the --min-* gates need --dataplane both\n";
    return 2;
  }

  bench::Harness harness(opts);

  // Row plan; --repeat replays it with seeds seed, seed+1, ...
  std::vector<RowSpec> specs;
  for (int rep = 0; rep < opts.repeat; ++rep) {
    const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(rep);
    const std::string tag = opts.repeat > 1 ? "/s" + std::to_string(seed) : "";
    if (routers > 0) {
      const int side = std::max(
          2, static_cast<int>(
                 std::ceil(std::sqrt(static_cast<double>(routers)))));
      specs.push_back({"sweep-" + std::to_string(side * side) + "r" + tag,
                       side, 8, 4, 8, 200, 1024, seed});
    } else if (opts.smoke) {
      specs.push_back({"sweep-64r" + tag, 8, 4, 2, 4, 60, 1024, seed});
    } else {
      specs.push_back({"sweep-64r" + tag, 8, 4, 2, 4, 150, 1024, seed});
      specs.push_back({"sweep-256r" + tag, 16, 8, 3, 6, 150, 1024, seed});
      specs.push_back({"sweep-1024r" + tag, 32, 8, 4, 8, 200, 1024, seed});
    }
    for (RowSpec& spec : specs) {
      if (packets > 0) spec.packets = static_cast<std::uint32_t>(packets);
      if (payload_bytes > 0) {
        spec.payload_bytes = static_cast<std::uint32_t>(payload_bytes);
      }
      if (members > 0) spec.members = static_cast<std::uint32_t>(members);
    }
  }

  std::vector<RowResult> results;
  harness.Sweep(
      "dataplane", specs.size(),
      [&](exec::RunContext& ctx) {
        RowResult row;
        row.spec = specs[ctx.index];
        // Slow leg first so the fast leg's wall clock benefits from a
        // warm allocator — biasing against, not toward, the speedup.
        if (run_slow) {
          row.slow = RunLeg(row.spec, core::DataplaneMode::kSlow);
          row.ran_slow = true;
        }
        if (run_fast) {
          row.fast = RunLeg(row.spec, core::DataplaneMode::kFast);
          row.ran_fast = true;
        }
        return row;
      },
      [&](exec::RunContext&, RowResult row) {
        results.push_back(std::move(row));
      },
      bench::SeedsOf(specs));

  analysis::Table rows({"row", "path", "routers", "groups", "senders",
                        "members", "sent", "hops", "delivered", "digest",
                        "cache hit", "cache miss", "cache inval", "copies",
                        "audit"});
  const auto add_leg = [&rows](const RowSpec& spec, const char* path,
                               const LegResult& leg) {
    rows.AddRow({spec.label, path, analysis::Table::Num(spec.side * spec.side),
                 analysis::Table::Num(spec.groups),
                 analysis::Table::Num(spec.senders),
                 analysis::Table::Num(spec.members),
                 analysis::Table::Num(leg.sent), analysis::Table::Num(leg.hops),
                 analysis::Table::Num(leg.delivered), DigestHex(leg.digest),
                 analysis::Table::Num(leg.cache_hits),
                 analysis::Table::Num(leg.cache_misses),
                 analysis::Table::Num(leg.cache_invalidates),
                 analysis::Table::Num(leg.arena_makes),
                 leg.audit_clean ? "clean" : "VIOLATIONS"});
  };
  for (const RowResult& r : results) {
    if (r.ran_fast) add_leg(r.spec, "fast", r.fast);
    if (r.ran_slow) add_leg(r.spec, "slow", r.slow);
  }

  if (!opts.csv) {
    std::cout << "Data-plane fast path: seed=" << opts.seed << ", legs="
              << dataplane_name << ", 60 s traffic per row\n\n";
  }
  bench::Emit(rows, opts.csv, "rows");

  // The differential itself: identical delivery, both legs audit-clean.
  bool delivery_match = true;
  for (const RowResult& r : results) {
    if (r.ran_fast && !r.fast.audit_clean) delivery_match = false;
    if (r.ran_slow && !r.slow.audit_clean) delivery_match = false;
    if (!(r.ran_fast && r.ran_slow)) continue;
    if (r.fast.digest != r.slow.digest ||
        r.fast.delivered != r.slow.delivered || r.fast.sent != r.slow.sent) {
      delivery_match = false;
      std::cerr << "bench_dataplane: " << r.spec.label
                << " fast/slow delivery DIVERGED: digest "
                << DigestHex(r.fast.digest) << " vs "
                << DigestHex(r.slow.digest) << ", delivered "
                << r.fast.delivered << " vs " << r.slow.delivered << "\n";
    }
  }

  // Wall-clock and forwarding-stage throughput (nondeterministic;
  // stderr + json only). The stage numbers come from cycle brackets
  // around the data-plane handlers, so they exclude the event queue,
  // parsing and host processing that both legs pay identically.
  const double cycles_per_s = MeasureCyclesPerSecond();
  // Wall gates use the BEST row: with --repeat the sweep re-runs each
  // config under fresh seeds, and one quiet run is enough to prove the
  // fast path is intact (shared CI runners routinely steal 30%+ of a
  // single window). The copy ratio has no such escape hatch — it is a
  // deterministic structural count, so every row must clear it.
  double best_speedup = 0;
  double best_stage_speedup = 0;
  double worst_copy_ratio = 0;
  for (const RowResult& r : results) {
    if (!(r.ran_fast && r.ran_slow)) continue;
    if (r.fast.arena_makes > 0) {
      const double ratio = static_cast<double>(r.slow.arena_makes) /
                           static_cast<double>(r.fast.arena_makes);
      if (worst_copy_ratio == 0 || ratio < worst_copy_ratio) {
        worst_copy_ratio = ratio;
      }
    }
    if (r.fast.wall_s <= 0 || r.fast.hops == 0 || r.slow.hops == 0) continue;
    const double fast_ns = r.fast.wall_s * 1e9 / r.fast.hops;
    const double slow_ns = r.slow.wall_s * 1e9 / r.slow.hops;
    const double speedup = fast_ns > 0 ? slow_ns / fast_ns : 0;
    if (speedup > best_speedup) best_speedup = speedup;
    std::cerr << r.spec.label << ": fast " << fast_ns << " ns/hop ("
              << r.fast.hops / r.fast.wall_s << " hops/s), slow " << slow_ns
              << " ns/hop = " << speedup << "x speedup (whole sim)\n";
    if (r.fast.stage_cycles > 0 && r.slow.stage_cycles > 0) {
      const double fast_stage_ns =
          r.fast.stage_cycles / cycles_per_s * 1e9 / r.fast.hops;
      const double slow_stage_ns =
          r.slow.stage_cycles / cycles_per_s * 1e9 / r.slow.hops;
      const double stage_speedup =
          fast_stage_ns > 0 ? slow_stage_ns / fast_stage_ns : 0;
      if (stage_speedup > best_stage_speedup) {
        best_stage_speedup = stage_speedup;
      }
      std::cerr << r.spec.label << ": forwarding stage fast " << fast_stage_ns
                << " ns/hop, slow " << slow_stage_ns << " ns/hop = "
                << stage_speedup << "x hop-forwarding speedup\n";
    }
  }
  if (worst_copy_ratio > 0) {
    std::cerr << "bench_dataplane: fast path stages " << worst_copy_ratio
              << "x fewer arena buffers than slow (worst row)\n";
  }

  auto& report = harness.report();
  report.Param("seed", opts.seed);
  report.Param("repeat", opts.repeat);
  report.Param("dataplane", dataplane_name);
  report.Param("deterministic", deterministic);
  report.Param("delivery_match", delivery_match);
  report.AddTable("rows", rows);
  for (const RowResult& r : results) {
    if (r.ran_fast) {
      report.SeriesNamed("cache.hit_rate", "ratio")
          .Add(r.spec.label,
               r.fast.cache_hits + r.fast.cache_misses +
                           r.fast.cache_invalidates >
                       0
                   ? static_cast<double>(r.fast.cache_hits) /
                         static_cast<double>(r.fast.cache_hits +
                                             r.fast.cache_misses +
                                             r.fast.cache_invalidates)
                   : 0);
      report.SeriesNamed("cache.occupancy", "entries")
          .Add(r.spec.label, static_cast<double>(r.fast.cache_occupancy));
    }
    if (r.ran_fast && r.ran_slow && r.fast.arena_makes > 0) {
      // Deterministic even under --jobs: buffer stagings are a
      // structural property of the forwarding paths, not a timing.
      report.SeriesNamed("perf.copy_reduction", "x")
          .Add(r.spec.label, static_cast<double>(r.slow.arena_makes) /
                                 static_cast<double>(r.fast.arena_makes));
    }
  }
  if (!deterministic) {
    for (const RowResult& r : results) {
      if (r.ran_fast && r.fast.wall_s > 0 && r.fast.hops > 0) {
        report.SeriesNamed("perf.ns_per_hop.fast", "ns")
            .Add(r.spec.label, r.fast.wall_s * 1e9 / r.fast.hops);
        report.SeriesNamed("perf.packets_per_second.fast", "pkt/s")
            .Add(r.spec.label, r.fast.sent / r.fast.wall_s);
      }
      if (r.ran_slow && r.slow.wall_s > 0 && r.slow.hops > 0) {
        report.SeriesNamed("perf.ns_per_hop.slow", "ns")
            .Add(r.spec.label, r.slow.wall_s * 1e9 / r.slow.hops);
      }
      if (r.ran_fast && r.ran_slow && r.fast.wall_s > 0 &&
          r.slow.wall_s > 0 && r.fast.hops > 0 && r.slow.hops > 0) {
        const double fast_ns = r.fast.wall_s * 1e9 / r.fast.hops;
        const double slow_ns = r.slow.wall_s * 1e9 / r.slow.hops;
        report.SeriesNamed("perf.speedup", "x")
            .Add(r.spec.label, fast_ns > 0 ? slow_ns / fast_ns : 0);
      }
      if (r.ran_fast && r.fast.stage_cycles > 0 && r.fast.hops > 0) {
        report.SeriesNamed("perf.stage_ns_per_hop.fast", "ns")
            .Add(r.spec.label,
                 r.fast.stage_cycles / cycles_per_s * 1e9 / r.fast.hops);
      }
      if (r.ran_slow && r.slow.stage_cycles > 0 && r.slow.hops > 0) {
        report.SeriesNamed("perf.stage_ns_per_hop.slow", "ns")
            .Add(r.spec.label,
                 r.slow.stage_cycles / cycles_per_s * 1e9 / r.slow.hops);
      }
      if (r.ran_fast && r.ran_slow && r.fast.stage_cycles > 0 &&
          r.slow.stage_cycles > 0 && r.fast.hops > 0 && r.slow.hops > 0) {
        const double fast_stage =
            static_cast<double>(r.fast.stage_cycles) / r.fast.hops;
        const double slow_stage =
            static_cast<double>(r.slow.stage_cycles) / r.slow.hops;
        report.SeriesNamed("perf.stage_speedup", "x")
            .Add(r.spec.label,
                 fast_stage > 0 ? slow_stage / fast_stage : 0);
      }
    }
  }

  if (!delivery_match) return harness.Finish(3);
  if (min_copy_reduction > 0 && worst_copy_ratio < min_copy_reduction) {
    std::cerr << "bench_dataplane: arena-copy reduction " << worst_copy_ratio
              << "x is below the required " << min_copy_reduction << "x\n";
    return harness.Finish(3);
  }
  if (min_speedup > 0 && best_speedup < min_speedup) {
    std::cerr << "bench_dataplane: best-row speedup " << best_speedup
              << "x is below the required " << min_speedup << "x\n";
    return harness.Finish(3);
  }
  if (min_stage_speedup > 0 && best_stage_speedup < min_stage_speedup) {
    std::cerr << "bench_dataplane: best-row forwarding-stage speedup "
              << best_stage_speedup << "x is below the required "
              << min_stage_speedup << "x\n";
    return harness.Finish(3);
  }
  return harness.Finish(0);
}
