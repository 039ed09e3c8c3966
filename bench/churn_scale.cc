// Churn scale — the aggregate host model vs the per-host reference
// under million-member membership churn (ISSUE 8 tentpole workload).
//
// Two sweeps share one binary:
//
//  * calibration — the identical churn schedule driven twice over a
//    small grid, once with one HostAgent per member (fresh host per
//    join, FIFO retirement per leave) and once with one
//    igmp::MembershipAggregate per LAN (kCoalesced). Same routers, same
//    groups, same seed; the wall-clock ratio and object-count ratio are
//    the measured cost of simulating hosts individually.
//
//  * scale — aggregate-only rows sweeping routers x members x churn
//    rate up to the 10k-router / 1M-member zipf workload that is
//    infeasible per-host. Members concentrate on kMemberLans stub
//    LANs (zipf group popularity; Poisson arrivals; exponential
//    holding), with optional flash-crowd / leave-storm profiles.
//
// Each row reports membership-event totals, CBT + IGMP control cost,
// coalescing effectiveness, a final invariant audit, and the Cho &
// Breen-style tree-quality ratio (shared-tree links / mean per-source
// SPT links over the end-state member set, analysis::CompareTreeQuality).
//
// Determinism contract: stdout and the --json report are byte-identical
// for every --jobs and --shards value ONLY under --deterministic, which
// omits the wall-clock / RSS series (those legitimately vary run to
// run). Default runs additionally record per-row wall seconds, the
// calibration speedup, and bench::MemorySample series — peak RSS is
// process-wide, so the memory series are meaningful under --jobs 1,
// where rows run serially with the aggregate calibration row first.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "analysis/table.h"
#include "analysis/tree_metrics.h"
#include "bench_util.h"
#include "cbt/churn.h"
#include "cbt/domain.h"
#include "igmp/membership_aggregate.h"
#include "netsim/topologies.h"

namespace {

using namespace cbt;  // NOLINT

/// Group index -> multicast address (239.10.x.y).
Ipv4Address GroupAddress(std::uint32_t g) {
  return Ipv4Address(239, 10, static_cast<std::uint8_t>((g >> 8) & 0xff),
                     static_cast<std::uint8_t>(g & 0xff));
}

/// Zipf-ranked multicast groups, and the stub LANs hosting members in
/// each scale row (the smoke row uses 32, calibration every LAN).
constexpr int kGroups = 8;
constexpr int kMemberLans = 256;

/// Soak-style timers so query/report machinery cycles several times
/// inside a short simulated window.
igmp::IgmpConfig ChurnIgmpConfig() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

struct RowSpec {
  std::string label;
  int side = 4;                    // grid side; side*side routers
  std::uint64_t members = 0;       // warm-start members
  double churn = 1.0;              // arrival-rate multiplier
  std::uint32_t member_lans = 0;   // 0 = every router LAN
  bool per_host = false;           // reference model instead of aggregate
  std::uint64_t seed = 1;
};

struct RowResult {
  std::string label;
  int routers = 0;
  std::uint32_t lans = 0;
  std::uint64_t schedule_events = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t peak_members = 0;
  std::uint64_t final_members = 0;
  std::uint64_t control_messages = 0;  // CBT router control traffic
  std::uint64_t station_messages = 0;  // host-side IGMP (reports+leaves)
  std::uint64_t suppressed = 0;        // responses coalescing elided
  bool audit_clean = false;
  analysis::TreeQuality quality;
  int quality_groups = 0;          // groups large enough to measure
  std::uint64_t sim_nodes = 0;     // node objects at end (memory proxy)
  std::uint64_t data_sends = 0;         // --data-rate sender packets
  std::uint64_t data_forwarded = 0;     // router data_forwarded_tree total
  std::uint64_t data_delivered = 0;     // router data_delivered_lan total
  std::uint64_t cache_hits = 0;         // flow-cache hits across routers
  std::uint64_t cache_misses = 0;       // flow-cache cold misses
  std::uint64_t cache_invalidates = 0;  // generation-mismatch rebuilds
  double wall_s = 0;               // nondeterministic; kept off stdout
  bench::MemorySample memory;      // nondeterministic (RSS fields)
  std::string error;
};

/// Per-host reference driver: a fresh HostAgent per join (attachment
/// order == join order, matching the aggregate's slot order) and FIFO
/// retirement per leave — never pooled, never reused.
class PerHostDriver {
 public:
  PerHostDriver(core::CbtDomain& domain, const netsim::Topology& topo,
                const std::vector<std::uint32_t>& lans)
      : domain_(&domain), topo_(&topo), lans_(&lans) {}

  void Apply(const scenario::MembershipEvent& e) {
    const Ipv4Address group = GroupAddress(e.group);
    auto& fifo = fifos_[{e.lan, e.group}];
    if (e.join) {
      core::HostAgent& host = domain_->AddHost(
          topo_->router_lans[(*lans_)[e.lan]],
          "h" + std::to_string(next_host_++));
      host.JoinGroup(group);
      fifo.push_back(&host);
    } else if (!fifo.empty()) {
      fifo.front()->LeaveGroup(group);
      fifo.pop_front();
    }
  }

  std::uint64_t MemberCount(std::uint32_t lan, std::uint32_t group) const {
    const auto it = fifos_.find({lan, group});
    return it == fifos_.end() ? 0 : it->second.size();
  }

 private:
  core::CbtDomain* domain_;
  const netsim::Topology* topo_;
  const std::vector<std::uint32_t>* lans_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::deque<core::HostAgent*>>
      fifos_;
  std::uint64_t next_host_ = 0;
};

RowResult RunRow(const RowSpec& spec, const scenario::ChurnParams& params,
                 const bench::Harness& harness, int data_rate,
                 core::DataplaneMode dataplane) {
  const auto wall_start = std::chrono::steady_clock::now();
  RowResult result;
  result.label = spec.label;

  netsim::Simulator sim(1);
  netsim::Topology topo = netsim::MakeGrid(sim, spec.side, spec.side);
  result.routers = spec.side * spec.side;

  core::CbtConfig cbt_config;
  cbt_config.dataplane = dataplane;
  const bench::ShardedDomain sharded =
      harness.Domain(sim, topo, cbt_config, ChurnIgmpConfig());
  core::CbtDomain& domain = *sharded.domain;

  // Members concentrate on a contiguous block of stub LANs; cores sit
  // inside the block so join paths stay local (the other routers still
  // run their full CBT/IGMP machinery, they just never host members).
  const std::uint32_t lan_count = static_cast<std::uint32_t>(
      std::min<std::size_t>(topo.router_lans.size(),
                            spec.member_lans == 0
                                ? topo.router_lans.size()
                                : spec.member_lans));
  result.lans = lan_count;
  std::vector<std::uint32_t> lans(lan_count);
  for (std::uint32_t i = 0; i < lan_count; ++i) lans[i] = i;

  std::vector<NodeId> cores;
  for (std::uint32_t g = 0; g < params.groups; ++g) {
    const std::uint32_t at = ((g + 1) * lan_count) / (params.groups + 1);
    const NodeId core = topo.routers[std::min(at, lan_count - 1)];
    cores.push_back(core);
    domain.RegisterGroup(GroupAddress(g), {core});
  }

  std::vector<igmp::MembershipAggregate*> stations;
  if (!spec.per_host) {
    stations.reserve(lan_count);
    for (std::uint32_t i = 0; i < lan_count; ++i) {
      stations.push_back(&domain.AddAggregate(
          topo.router_lans[i], "agg" + std::to_string(i),
          igmp::MembershipAggregate::Mode::kCoalesced));
    }
  }
  PerHostDriver per_host(domain, topo, lans);

  const scenario::ChurnSchedule schedule =
      scenario::ChurnSchedule::Generate(params, lan_count, spec.seed);
  result.schedule_events = schedule.events().size();
  result.joins = schedule.join_count();
  result.leaves = schedule.leave_count();
  result.peak_members = schedule.peak_members();

  scenario::ChurnRunner runner(
      sim, schedule, [&](const scenario::MembershipEvent& e) {
        if (spec.per_host) {
          per_host.Apply(e);
        } else if (e.join) {
          stations[e.lan]->Join(GroupAddress(e.group));
        } else {
          stations[e.lan]->Leave(GroupAddress(e.group));
        }
      });

  domain.Start();
  runner.Start();

  // Sustained sender traffic (--data-rate): one non-member host on the
  // last router LAN pumps each group at data_rate packets/sec, driving
  // the full data plane (DR relay toward the core, then tree fan-out
  // and member-LAN delivery) under the live churn workload.
  core::HostAgent* sender = nullptr;
  const SimDuration period =
      data_rate > 0 ? std::max<SimDuration>(1, kSecond / data_rate) : 0;
  std::function<void(std::uint32_t, std::uint32_t)> pump =
      [&](std::uint32_t g, std::uint32_t seq) {
        std::array<std::uint8_t, 8> payload{};
        payload[0] = static_cast<std::uint8_t>(g >> 8);
        payload[1] = static_cast<std::uint8_t>(g);
        payload[4] = static_cast<std::uint8_t>(seq >> 24);
        payload[5] = static_cast<std::uint8_t>(seq >> 16);
        payload[6] = static_cast<std::uint8_t>(seq >> 8);
        payload[7] = static_cast<std::uint8_t>(seq);
        sender->SendToGroup(GroupAddress(g), payload);
        ++result.data_sends;
        if (sim.Now() + period < params.duration) {
          sim.Schedule(period, [&pump, g, seq] { pump(g, seq + 1); });
        }
      };
  if (data_rate > 0) {
    sender = &domain.AddHost(topo.router_lans.back(), "datasrc");
    for (std::uint32_t g = 0; g < params.groups; ++g) {
      // Stagger streams across one period; start after trees warm up.
      sim.Schedule(10 * kSecond + (period * g) / params.groups,
                   [&pump, g] { pump(g, 0); });
    }
  }

  sim.RunUntil(params.duration);

  // Drain: let leave-triggered queries expire and the tree settle, then
  // demand a clean audit over whatever membership remains.
  result.audit_clean =
      analysis::RunUntilInvariantsHold(domain, sim.Now() + 60 * kSecond)
          .has_value();

  // End-state membership per (lan, group) feeds the tree-quality oracle.
  for (std::uint32_t g = 0; g < params.groups; ++g) {
    std::vector<NodeId> member_routers;
    for (std::uint32_t i = 0; i < lan_count; ++i) {
      const std::uint64_t count =
          spec.per_host ? per_host.MemberCount(i, g)
                        : stations[i]->MemberCount(GroupAddress(g));
      result.final_members += count;
      if (count > 0) member_routers.push_back(topo.routers[i]);
    }
    if (member_routers.size() < 2) continue;
    // Up to 3 senders spread evenly across the member list.
    const std::size_t sender_count =
        std::min<std::size_t>(3, member_routers.size());
    std::vector<NodeId> senders;
    for (std::size_t s = 0; s < sender_count; ++s) {
      senders.push_back(member_routers[s * (member_routers.size() - 1) /
                                       std::max<std::size_t>(1,
                                                             sender_count - 1)]);
    }
    const analysis::TreeQuality q = analysis::CompareTreeQuality(
        domain.routes(), cores[g], member_routers, senders);
    result.quality.shared_cost += q.shared_cost;
    result.quality.mean_source_cost += q.mean_source_cost;
    ++result.quality_groups;
  }
  if (result.quality.mean_source_cost > 0) {
    result.quality.cost_ratio =
        static_cast<double>(result.quality.shared_cost) /
        result.quality.mean_source_cost;
  }

  result.control_messages = domain.TotalControlMessages();
  for (const NodeId id : domain.router_ids()) {
    const core::RouterStats& rs = domain.router(id).stats();
    result.data_forwarded += rs.data_forwarded_tree;
    result.data_delivered += rs.data_delivered_lan;
    result.cache_hits += rs.dataplane_cache_hits;
    result.cache_misses += rs.dataplane_cache_misses;
    result.cache_invalidates += rs.dataplane_cache_invalidates;
  }
  for (igmp::MembershipAggregate* station : stations) {
    const auto& stats = station->stats();
    result.station_messages +=
        stats.reports_sent + stats.core_reports_sent + stats.leaves_sent;
    result.suppressed += stats.responses_suppressed;
  }
  result.sim_nodes = sim.node_count();
  result.memory = bench::SampleMemory(sim.packet_arena());
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts("churn_scale",
                      "aggregate host model vs per-host under heavy churn");
  opts.json_path = "BENCH_churn_scale.json";
  std::string profile = "zipf";
  int routers = 0;          // >0: replace the scale sweep with one row
  std::uint64_t members = 0;  // with --routers: members for that row
  int data_rate = 0;
  std::string dataplane_name = "fast";
  bool deterministic = false;
  bool skip_calibration = false;
  opts.Str("profile", &profile,
           "churn profile: zipf | flash (crowd joins) | storm (mass leave)");
  opts.Int("routers", &routers,
           "custom scale row: one ~N-router grid instead of the sweep");
  opts.U64("members", &members, "custom scale row: warm-start members");
  opts.Int("data-rate", &data_rate,
           "sender packets/sec per group pushed through the data plane "
           "while churn runs (0 = membership churn only)");
  opts.Str("dataplane", &dataplane_name,
           "forwarding path: fast (flow cache) | slow (per-packet oracle)");
  opts.Flag("deterministic", &deterministic,
            "omit wall-clock/RSS series so stdout AND --json are "
            "byte-identical across --jobs/--shards (differential mode)");
  opts.Flag("skip-calibration", &skip_calibration,
            "scale rows only (skip the per-host reference comparison)");
  opts.EnableShards();
  opts.Parse(argc, argv);
  if (profile != "zipf" && profile != "flash" && profile != "storm") {
    std::cerr << "bench_churn_scale: unknown --profile '" << profile
              << "' (known: zipf flash storm)\n";
    return 2;
  }
  if (dataplane_name != "fast" && dataplane_name != "slow") {
    std::cerr << "bench_churn_scale: unknown --dataplane '" << dataplane_name
              << "' (known: fast slow)\n";
    return 2;
  }
  const core::DataplaneMode dataplane = dataplane_name == "slow"
                                            ? core::DataplaneMode::kSlow
                                            : core::DataplaneMode::kFast;
  const int duration_s = opts.smoke ? 60 : 120;
  const SimDuration duration = duration_s * kSecond;

  bench::Harness harness(opts);

  // Row plan: calibration pair (aggregate first, so its RSS sample is
  // not polluted by the per-host allocations) then the scale rows.
  // --repeat replays the whole plan with seeds seed, seed+1, ...
  std::vector<RowSpec> specs;
  for (int rep = 0; rep < opts.repeat; ++rep) {
    const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(rep);
    const std::string tag = opts.repeat > 1 ? "/s" + std::to_string(seed) : "";
    if (!skip_calibration) {
      const std::uint64_t cal_members = opts.smoke ? 400 : 2000;
      specs.push_back({"cal-aggregate" + tag, 4, cal_members, 1.0, 0, false,
                       seed});
      specs.push_back({"cal-perhost" + tag, 4, cal_members, 1.0, 0, true,
                       seed});
    }
    if (routers > 0) {
      const int side = std::max(
          2, static_cast<int>(
                 std::ceil(std::sqrt(static_cast<double>(routers)))));
      const std::uint64_t m = members > 0 ? members : 10000;
      specs.push_back({"scale-" + std::to_string(side * side) + "r" + tag,
                       side, m, 1.0, kMemberLans, false, seed});
    } else if (opts.smoke) {
      specs.push_back({"scale-64r-5k" + tag, 8, 5000, 1.0, 32, false, seed});
    } else {
      specs.push_back(
          {"scale-1024r-100k" + tag, 32, 100000, 1.0, kMemberLans, false,
           seed});
      specs.push_back(
          {"scale-1024r-100k-hot" + tag, 32, 100000, 4.0, kMemberLans, false,
           seed});
      specs.push_back(
          {"scale-10000r-1m" + tag, 100, 1000000, 1.0, kMemberLans, false,
           seed});
    }
  }

  const auto params_for = [&](const RowSpec& spec) {
    scenario::ChurnParams params;
    params.groups = kGroups;
    params.zipf_s = 1.0;
    params.initial_members = spec.members;
    params.mean_holding = 60 * kSecond;
    params.duration = duration;
    // Equilibrium arrival rate (members / mean holding) scaled by the
    // row's churn multiplier, so expected population stays ~flat.
    params.arrivals_per_second =
        spec.churn * static_cast<double>(spec.members) / 60.0;
    if (profile == "flash") {
      scenario::FlashCrowd flash;
      flash.at = duration / 2;
      flash.group = params.groups - 1;  // coldest group floods
      flash.members = std::max<std::uint64_t>(100, spec.members / 4);
      flash.window = 5 * kSecond;
      params.flashes.push_back(flash);
    } else if (profile == "storm") {
      scenario::LeaveStorm storm;
      storm.at = duration / 2;
      storm.group = 0;  // hottest group empties
      storm.fraction = 0.5;
      storm.window = 5 * kSecond;
      params.storms.push_back(storm);
    }
    return params;
  };

  std::vector<RowResult> results;
  harness.Sweep(
      "churn", specs.size(),
      [&](exec::RunContext& ctx) {
        const RowSpec& spec = specs[ctx.index];
        return RunRow(spec, params_for(spec), harness, data_rate, dataplane);
      },
      [&](exec::RunContext&, RowResult result) {
        results.push_back(std::move(result));
      },
      bench::SeedsOf(specs));

  analysis::Table rows({"row", "routers", "lans", "events", "joins", "leaves",
                        "peak", "final", "ctl msgs", "host msgs",
                        "suppressed", "nodes", "audit"});
  analysis::Table quality(
      {"row", "tree ratio", "shared links", "mean spt links", "groups"});
  analysis::Table data({"row", "sends", "fwd tree", "lan dlv", "cache hit",
                        "cache miss", "cache inval"});
  for (const RowResult& r : results) {
    rows.AddRow({r.label, analysis::Table::Num(r.routers),
                 analysis::Table::Num(r.lans),
                 analysis::Table::Num(r.schedule_events),
                 analysis::Table::Num(r.joins), analysis::Table::Num(r.leaves),
                 analysis::Table::Num(r.peak_members),
                 analysis::Table::Num(r.final_members),
                 analysis::Table::Num(r.control_messages),
                 analysis::Table::Num(r.station_messages),
                 analysis::Table::Num(r.suppressed),
                 analysis::Table::Num(r.sim_nodes),
                 r.audit_clean ? "clean" : "VIOLATIONS"});
    quality.AddRow({r.label, analysis::Table::Fixed(r.quality.cost_ratio, 3),
                    analysis::Table::Num(r.quality.shared_cost),
                    analysis::Table::Fixed(r.quality.mean_source_cost, 1),
                    analysis::Table::Num(r.quality_groups)});
    data.AddRow({r.label, analysis::Table::Num(r.data_sends),
                 analysis::Table::Num(r.data_forwarded),
                 analysis::Table::Num(r.data_delivered),
                 analysis::Table::Num(r.cache_hits),
                 analysis::Table::Num(r.cache_misses),
                 analysis::Table::Num(r.cache_invalidates)});
  }

  if (!opts.csv) {
    std::cout << "Churn scale: profile=" << profile << ", seed=" << opts.seed
              << ", " << duration_s << " s simulated per row, " << kGroups
              << " zipf-ranked groups\n\n";
  }
  bench::Emit(rows, opts.csv, "rows");
  if (!opts.csv) std::cout << "\n";
  bench::Emit(quality, opts.csv, "quality");
  // The data table exists only when traffic ran, so default stdout
  // stays byte-identical to churn-only runs.
  if (data_rate > 0) {
    if (!opts.csv) std::cout << "\n";
    bench::Emit(data, opts.csv, "data");
  }

  // Calibration summary (stderr + JSON: wall-clock is nondeterministic,
  // so it must stay off the byte-compared stdout).
  const RowResult* cal_agg = nullptr;
  const RowResult* cal_host = nullptr;
  for (const RowResult& r : results) {
    if (r.label.rfind("cal-aggregate", 0) == 0 && cal_agg == nullptr) {
      cal_agg = &r;
    }
    if (r.label.rfind("cal-perhost", 0) == 0 && cal_host == nullptr) {
      cal_host = &r;
    }
  }
  double speedup = 0;
  double node_reduction = 0;
  if (cal_agg != nullptr && cal_host != nullptr && cal_agg->wall_s > 0 &&
      cal_agg->sim_nodes > 0) {
    speedup = cal_host->wall_s / cal_agg->wall_s;
    node_reduction = static_cast<double>(cal_host->sim_nodes) /
                     static_cast<double>(cal_agg->sim_nodes);
    std::cerr << "calibration: per-host " << cal_host->wall_s
              << " s / aggregate " << cal_agg->wall_s << " s = " << speedup
              << "x speedup; " << cal_host->sim_nodes << " vs "
              << cal_agg->sim_nodes << " sim nodes (" << node_reduction
              << "x)\n";
  }

  auto& report = harness.report();
  report.Param("seed", opts.seed);
  report.Param("repeat", opts.repeat);
  report.Param("profile", profile);
  report.Param("groups", kGroups);
  report.Param("duration_s", duration_s);
  report.Param("member_lans", kMemberLans);
  report.Param("deterministic", deterministic);
  report.AddTable("rows", rows);
  report.AddTable("quality", quality);
  if (data_rate > 0) {
    report.Param("data_rate", data_rate);
    report.Param("dataplane", dataplane_name);
    report.AddTable("data", data);
  }
  if (node_reduction > 0) {
    report.Param("calibration_node_reduction", node_reduction);
  }
  for (const RowResult& r : results) {
    report.SeriesNamed("model.sim_nodes", "nodes")
        .Add(r.label, r.sim_nodes);
  }
  if (!deterministic) {
    if (speedup > 0) report.Param("calibration_speedup", speedup);
    if (cal_agg != nullptr && cal_host != nullptr &&
        cal_agg->memory.peak_rss_bytes > 0) {
      report.Param("calibration_peak_rss_ratio",
                   static_cast<double>(cal_host->memory.peak_rss_bytes) /
                       static_cast<double>(cal_agg->memory.peak_rss_bytes));
    }
    for (const RowResult& r : results) {
      report.SeriesNamed("perf.wall_seconds", "s").Add(r.label, r.wall_s);
      bench::ReportMemory(report, r.label, r.memory);
    }
  }

  for (const RowResult& r : results) {
    if (!r.audit_clean) {
      std::cerr << "bench_churn_scale: " << r.label
                << " ended with invariant violations\n";
      return harness.Finish(1);
    }
  }
  return harness.Finish(0);
}
