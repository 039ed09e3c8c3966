// Benchmark driver: runs ONE iteration of one workload in this process
// and prints one JSON line on stdout. cbtbench/run.py builds it, repeats
// it for the measured time, compares digests and reports medians.
//
//   cbtbench_driver --workload churn-256|dataplane-256|chaos-256
//                   --seed N [--traced] [--tiny] [--spans FILE]
//                   [--inject-reception-faults]
//
// The driver is single-threaded and calls only the simulator's public
// API. Every phase is timed in host time with std::chrono::steady_clock.
// With --traced it also records a span around every call it makes into a
// layer (span names are "<layer>.<what>", layers named after the src/
// modules; "bench" is the driver itself), binds an obs::Registry, turns
// on the data-plane stage timer, attaches a trace ring and samples
// frames. All of that is passive: the digest of the simulated outputs
// must be identical with and without --traced.
//
// --inject-reception-faults, for the self-test, makes the dataplane check
// see the first member's last reception missing and its first one twice.
//
// Exit status: 0 when every internal check held, 1 when one failed (the
// JSON line is still printed, with "ok": false), 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "analysis/tree_metrics.h"
#include "cbt/churn.h"
#include "cbt/domain.h"
#include "check/cbt_expectations.h"
#include "check/expectation.h"
#include "check/trace_view.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/cycle_clock.h"
#include "netsim/chaos.h"
#include "netsim/topologies.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "packet/ipv4.h"

namespace {

using namespace cbt;  // NOLINT

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Spans -----------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t id = 0;
  std::int32_t parent = -1;
  std::int64_t child_ns = 0;  // summed durations of direct children

  std::int64_t duration() const { return end - start; }
  std::int64_t self() const { return duration() - child_ns; }
  std::string_view layer() const {
    const std::string_view n(name);
    return n.substr(0, n.find('.'));
  }
};

/// In-memory span log. Spans strictly nest (the driver is one thread and
/// every span is a scope), so a child's interval lies inside its parent's
/// and the self times of one tree add up to its root's duration exactly.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  std::int32_t Begin(const char* name) {
    if (!on_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, NowNs(), 0, id, open_.empty() ? -1 : open_.back(), 0});
    open_.push_back(id);
    return id;
  }

  void End(std::int32_t id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = NowNs();
    open_.pop_back();
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_ns += s.duration();
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes "id parent name start_ns end_ns" lines, times relative to
  /// the first span.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start;
    out << "# id\tparent\tname\tstart_ns\tend_ns\n";
    for (const Span& s : spans_) {
      out << s.id << '\t' << s.parent << '\t' << s.name << '\t'
          << s.start - base << '\t' << s.end - base << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(&log), id_(log.Begin(name)) {}
  ~Scope() { log_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

// --- Run context -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool tiny = false;
  bool inject_reception_faults = false;  // self-test of the dataplane tally
  std::string spans_path;
};

/// Layer counters summed over routers, subnets, stations and the arena.
struct Totals {
  std::uint64_t frames = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t ctl_msgs = 0;
  std::uint64_t joins = 0;
  std::uint64_t quits = 0;
  std::uint64_t echoes = 0;
  std::uint64_t reconnects_failed = 0;
  std::uint64_t hops = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidates = 0;
  std::uint64_t drop_off_tree = 0;
  std::uint64_t drop_ttl = 0;
  std::uint64_t drop_no_state = 0;
  std::uint64_t drop_not_local = 0;
  std::uint64_t stage_cycles = 0;
  std::uint64_t arena_makes = 0;
  std::uint64_t arena_reuses = 0;
  std::uint64_t reports = 0;
  std::uint64_t core_reports = 0;
  std::uint64_t suppressed = 0;
};

struct Ctx {
  explicit Ctx(const Options& o) : opts(o), spans(o.traced) {}

  const Options& opts;
  SpanLog spans;
  std::vector<std::string> errors;

  // Host-time phase boundaries (ns), recorded in every mode.
  std::int64_t t_start = 0;
  std::int64_t t_setup_end = 0;
  std::int64_t t_measure_end = 0;
  std::int64_t t_end = 0;

  double work = 0;  // work units of the measured phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;

  // Layer observations.
  std::uint64_t audits = 0;
  std::uint64_t igmp_calls = 0;
  std::size_t pending_peak = 0;
  std::size_t event_slots = 0;
  std::size_t arena_buffers = 0;
  routing::RouteManager::Stats routing;
  Totals measured;  // deltas over the measured phase
  double delivery_ratio = 0;
  std::map<std::string, double> probes;  // traced-only probe results
  std::map<std::string, double> info;    // deterministic facts for notes

  void Fail(std::string message) { errors.push_back(std::move(message)); }
};

// --- Shared helpers ----------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

class Digest {
 public:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= kFnvPrime;
    }
  }
  void MixDouble(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  /// Every router counter except the host-time stage timer fields.
  void MixRouters(core::CbtDomain& domain) {
    for (const NodeId id : domain.router_ids()) {
      core::ForEachStatsField(
          std::as_const(domain.router(id).stats()),
          [&](const char* name, const std::uint64_t& v, obs::FieldTag) {
            if (std::string_view(name).starts_with("dataplane.stage_")) return;
            Mix(v);
          });
    }
  }
  void MixSubnets(const netsim::Simulator& sim) {
    for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
      netsim::ForEachStatsField(
          sim.subnet(SubnetId(static_cast<std::int32_t>(s))).counters,
          [&](const char*, const std::uint64_t& v, obs::FieldTag) { Mix(v); });
    }
  }
  void MixAudit(const analysis::AuditReport& report) {
    Mix(static_cast<std::uint64_t>(report.at));
    Mix(report.groups_checked);
    Mix(report.routers_on_tree);
    Mix(report.transient_joins);
    Mix(report.violations.size());
  }
  void MixReceived(const core::HostAgent& host) {
    for (const core::HostAgent::Received& r : host.received()) {
      Mix(r.group.bits());
      Mix(r.src.bits());
      Mix(static_cast<std::uint64_t>(r.time));
      Mix(r.bytes);
      Mix(r.payload_head);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

Totals Sum(core::CbtDomain& domain,
           const std::vector<igmp::MembershipAggregate*>& stations) {
  Totals t;
  netsim::Simulator& sim = domain.sim();
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const netsim::SubnetCounters& c =
        sim.subnet(SubnetId(static_cast<std::int32_t>(s))).counters;
    t.frames += c.frames_sent;
    t.frames_dropped += c.frames_dropped;
  }
  for (const NodeId id : domain.router_ids()) {
    const core::RouterStats& rs = domain.router(id).stats();
    t.ctl_msgs += rs.ControlMessagesSent();
    t.joins += rs.joins_originated;
    t.quits += rs.quits_sent;
    t.echoes += rs.echo_requests_sent;
    t.reconnects_failed += rs.reconnects_failed;
    t.hops += rs.data_forwarded_tree + rs.data_delivered_lan +
              rs.data_nonmember_relayed;
    t.cache_hits += rs.dataplane_cache_hits;
    t.cache_misses += rs.dataplane_cache_misses;
    t.cache_invalidates += rs.dataplane_cache_invalidates;
    t.drop_off_tree += rs.data_dropped_off_tree;
    t.drop_ttl += rs.data_dropped_ttl;
    t.drop_no_state += rs.data_dropped_no_state;
    t.drop_not_local += rs.data_dropped_not_local;
    t.stage_cycles += rs.dataplane_stage_cycles;
  }
  for (const igmp::MembershipAggregate* st : stations) {
    t.reports += st->stats().reports_sent;
    t.core_reports += st->stats().core_reports_sent;
    t.suppressed += st->stats().responses_suppressed;
  }
  t.arena_makes = sim.packet_arena().total_makes();
  t.arena_reuses = sim.packet_arena().reuses();
  return t;
}

Totals Delta(const Totals& a, const Totals& b) {
  Totals d;
  d.frames = b.frames - a.frames;
  d.frames_dropped = b.frames_dropped - a.frames_dropped;
  d.ctl_msgs = b.ctl_msgs - a.ctl_msgs;
  d.joins = b.joins - a.joins;
  d.quits = b.quits - a.quits;
  d.echoes = b.echoes - a.echoes;
  d.reconnects_failed = b.reconnects_failed - a.reconnects_failed;
  d.hops = b.hops - a.hops;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.cache_invalidates = b.cache_invalidates - a.cache_invalidates;
  d.drop_off_tree = b.drop_off_tree - a.drop_off_tree;
  d.drop_ttl = b.drop_ttl - a.drop_ttl;
  d.drop_no_state = b.drop_no_state - a.drop_no_state;
  d.drop_not_local = b.drop_not_local - a.drop_not_local;
  d.stage_cycles = b.stage_cycles - a.stage_cycles;
  d.arena_makes = b.arena_makes - a.arena_makes;
  d.arena_reuses = b.arena_reuses - a.arena_reuses;
  d.reports = b.reports - a.reports;
  d.core_reports = b.core_reports - a.core_reports;
  d.suppressed = b.suppressed - a.suppressed;
  return d;
}

/// RunUntil in whole-simulated-second steps (the same events in the same
/// order as one call), sampling the event queue after each step.
void RunTo(Ctx& c, netsim::Simulator& sim, SimTime until) {
  SimTime t = sim.Now();
  do {
    const SimTime step = std::min(until, (t / kSecond + 1) * kSecond);
    {
      Scope s(c.spans, "netsim.run");
      sim.RunUntil(step);
    }
    c.pending_peak = std::max(c.pending_peak, sim.events().size());
    t = step;
  } while (t < until);
}

/// The driver's own convergence poll: the same Audit()/RunUntil calls at
/// the same one-second interval as analysis::RunUntilInvariantsHold, with
/// each audit and each run step visible as its own span.
std::optional<SimTime> PollClean(Ctx& c, core::CbtDomain& domain,
                                 SimTime deadline,
                                 analysis::AuditReport* last = nullptr) {
  const analysis::InvariantAuditor auditor(domain);
  netsim::Simulator& sim = domain.sim();
  for (;;) {
    analysis::AuditReport report;
    {
      Scope s(c.spans, "analysis.audit");
      report = auditor.Audit();
    }
    ++c.audits;
    const bool clean = report.Clean();
    if (last != nullptr) *last = std::move(report);
    if (clean) return sim.Now();
    if (sim.Now() >= deadline) return std::nullopt;
    RunTo(c, sim, std::min(deadline, sim.Now() + kSecond));
  }
}

/// Member receptions checked against the expected set: each member of a
/// group receives every (source, sequence) of that group exactly once. An
/// expected reception seen zero times or more than once fails, so failed
/// never exceeds the number expected; a reception that matches no
/// expected one (another group, an unknown source or sequence) is counted
/// apart.
struct ReceptionTally {
  std::uint64_t delivered = 0;   // receptions, duplicates included
  std::uint64_t failed = 0;      // expected receptions not seen exactly once
  std::uint64_t unexpected = 0;  // receptions matching no expected one

  /// One member's receptions; it expects `packets` sequence numbers from
  /// each of `sources` on `group`. The sequence is payload bytes 0..3.
  void Add(const std::vector<core::HostAgent::Received>& got, Ipv4Address group,
           const std::vector<Ipv4Address>& sources, std::uint32_t packets) {
    std::vector<std::uint8_t> seen(sources.size() * packets, 0);
    for (const core::HostAgent::Received& rec : got) {
      ++delivered;
      const auto src = std::find(sources.begin(), sources.end(), rec.src);
      if (rec.group != group || src == sources.end() || rec.payload_head >= packets) {
        ++unexpected;
        continue;
      }
      std::uint8_t& n =
          seen[static_cast<std::size_t>(src - sources.begin()) * packets + rec.payload_head];
      n = static_cast<std::uint8_t>(std::min(n + 1, 2));
    }
    failed += static_cast<std::uint64_t>(
        std::count_if(seen.begin(), seen.end(), [](std::uint8_t n) { return n != 1; }));
  }
};

igmp::IgmpConfig FastQueryIgmpConfig() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

/// Traced-run extras: a frame sample for the codec probe, the registry
/// and the trace ring for the checker.
struct TraceAids {
  static constexpr std::uint64_t kStride = 97;
  static constexpr std::size_t kMaxFrames = 4096;

  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t seen = 0;
  obs::Registry registry;
  std::unique_ptr<obs::TraceBuffer> ring;

  /// Allocates the checker's trace ring; called before the run's root
  /// span opens so the allocation is not charged to any phase.
  void MakeRing(Ctx& c) {
    if (!c.opts.traced) return;
    ring = std::make_unique<obs::TraceBuffer>(std::size_t{1} << 18,
                                              obs::TraceLevel::kSpans);
  }

  void Attach(Ctx& c, netsim::Simulator& sim) {
    if (!c.opts.traced) return;
    if (ring) sim.SetTrace(ring.get());
    sim.SetFrameObserver([this](const netsim::FrameEvent& e) {
      if (seen++ % kStride == 0 && frames.size() < kMaxFrames) {
        frames.emplace_back(e.payload.begin(), e.payload.end());
      }
    });
  }

  void Bind(Ctx& c, core::CbtDomain& domain) {
    if (!c.opts.traced) return;
    Scope s(c.spans, "obs.bind");
    domain.BindMetrics(registry);
  }
};

/// Everything one iteration builds, owned outside the timed scopes so
/// the probes can inspect the end state. Declaration order is teardown
/// order in reverse: the domain dies before the simulator, and the trace
/// aids (registry, ring, frame sink) outlive both.
struct World {
  /// Allocates the traced run's ring before any timed scope opens.
  explicit World(Ctx& c) { aids.MakeRing(c); }

  TraceAids aids;
  std::unique_ptr<netsim::Simulator> sim;
  netsim::Topology topo;
  std::optional<core::CbtDomain> domain;
  std::vector<igmp::MembershipAggregate*> stations;
  core::CbtConfig config;
  Totals before;

  void MakeGrid(Ctx& c, int side) {
    Scope phase(c.spans, "bench.topology");
    Scope s(c.spans, "netsim.make_grid");
    sim = std::make_unique<netsim::Simulator>(c.opts.seed);
    aids.Attach(c, *sim);
    topo = netsim::MakeGrid(*sim, side, side);
  }

  /// Builds the domain; the caller registers groups inside `register_fn`
  /// so that work lands in the domain phase too.
  void MakeDomain(Ctx& c, const igmp::IgmpConfig& igmp_config,
                  const std::function<void(core::CbtDomain&)>& register_fn) {
    Scope phase(c.spans, "bench.domain");
    config.time_dataplane = c.opts.traced;
    {
      Scope s(c.spans, "cbt.domain");
      domain.emplace(*sim, topo, config, igmp_config);
      register_fn(*domain);
    }
    aids.Bind(c, *domain);
  }

  void EndSetup(Ctx& c) {
    before = Sum(*domain, stations);
    c.t_setup_end = NowNs();
  }

  void EndMeasure(Ctx& c) {
    c.t_measure_end = NowNs();
    c.measured = Delta(before, Sum(*domain, stations));
  }

  void Finish(Ctx& c) {
    c.routing = domain->routes().stats();
    c.event_slots = sim->events().slot_capacity();
    c.arena_buffers = sim->packet_arena().buffers_allocated();
    c.t_end = NowNs();
  }

  void Probes(Ctx& c);
};

/// Traced-run probes, timed after the workload's root span has closed.
void World::Probes(Ctx& c) {
  if (!c.opts.traced) return;
  netsim::Simulator& sim = *this->sim;
  core::CbtDomain& domain = *this->domain;
  Scope root(c.spans, "bench.probes");
  std::uint64_t sink = 0;

  // Codec: parse and checksum the workload's own sampled frames.
  constexpr int kReps = 32;
  c.probes["packet.frames"] = static_cast<double>(aids.frames.size() * kReps);
  {
    Scope s(c.spans, "packet.parse");
    for (int r = 0; r < kReps; ++r) {
      for (const auto& f : aids.frames) {
        if (const auto d = packet::ParseDatagram(f)) sink += d->payload.size();
      }
    }
  }
  {
    Scope s(c.spans, "packet.checksum");
    for (int r = 0; r < kReps; ++r) {
      for (const auto& f : aids.frames) sink += InternetChecksum(f);
    }
  }

  // Unicast SPF: one lookup per router through a fresh manager on the
  // end-state topology, so every lookup computes one source's table.
  {
    routing::RouteManager fresh(sim);
    const Ipv4Address target =
        sim.PrimaryAddress(domain.topology().routers.front());
    {
      Scope s(c.spans, "routing.spf");
      for (const NodeId id : domain.router_ids()) {
        if (const auto route = fresh.Lookup(id, target)) sink += route->vif;
      }
    }
    c.probes["routing.spf_tables"] =
        static_cast<double>(fresh.stats().tables_computed);
  }

  // Registry: its sums must agree with the counters read directly.
  {
    Scope s(c.spans, "obs.snapshot");
    const obs::MetricSet snap = aids.registry.Snapshot();
    const Totals direct = Sum(domain, {});
    if (snap.SumWithSuffix(".frames_sent") != direct.frames ||
        snap.SumWithSuffix(".joins_originated") != direct.joins ||
        snap.SumWithSuffix(".data_forwarded_tree") +
                snap.SumWithSuffix(".data_delivered_lan") +
                snap.SumWithSuffix(".data_nonmember_relayed") !=
            direct.hops) {
      c.Fail("obs registry sums disagree with the router/subnet counters");
    }
  }

  // Causal-path expectations over the trace ring.
  if (aids.ring) {
    check::CheckReport report;
    {
      Scope s(c.spans, "check.expectations");
      check::CbtSuiteOptions suite;
      suite.config = config;
      suite.node_of = check::MakeAddressResolver(sim);
      report = check::RunExpectations(check::TraceView(*aids.ring),
                                      check::CbtExpectationSuite(suite),
                                      sim.Now());
    }
    c.probes["check.failed"] = static_cast<double>(report.violations());
    if (!report.clean()) c.Fail("causal-path expectations violated");
  }

  const Totals end = Sum(domain, stations);
  c.probes["stage_cycles"] = static_cast<double>(end.stage_cycles);
  c.probes["stage_hops"] = static_cast<double>(end.hops);

  // Cycle-clock rate for the stage timer.
  {
    const std::int64_t t0 = NowNs();
    const std::uint64_t c0 = CycleNow();
    while (NowNs() - t0 < 20'000'000) {
    }
    const double ns = static_cast<double>(NowNs() - t0);
    c.probes["cycles_per_ns"] = static_cast<double>(CycleNow() - c0) / ns;
  }
  // Keeps the probe loops' results observable so they are not elided.
  c.probes["probe_sink"] = static_cast<double>(sink & 0xffff);
}

// --- churn-256 ---------------------------------------------------------------
// Aggregate-membership churn: kCoalesced stations on a block of member
// LANs, zipf groups, Poisson arrivals with exponential holding.

Ipv4Address ChurnGroup(std::uint32_t g) {
  return Ipv4Address(239, 10, static_cast<std::uint8_t>((g >> 8) & 0xff),
                     static_cast<std::uint8_t>(g & 0xff));
}

void RunChurn(Ctx& c) {
  const bool tiny = c.opts.tiny;
  const int side = tiny ? 8 : 16;
  const std::uint32_t member_lans = tiny ? 16 : 64;
  scenario::ChurnParams params;
  params.groups = tiny ? 4 : 8;
  params.zipf_s = 1.0;
  // 6000 members keep the event queue and the packet arena to a few MB,
  // so an iteration takes well under a second and a run takes its median
  // over dozens of them; the 480 s churn window gives ~100k events.
  params.initial_members = tiny ? 2000 : 6000;
  params.mean_holding = 60 * kSecond;
  // Equilibrium arrival rate: members / mean holding time.
  params.arrivals_per_second =
      static_cast<double>(params.initial_members) / 60.0;
  params.duration = (tiny ? 30 : 480) * kSecond;
  const SimDuration warmup = 10 * kSecond;

  World w(c);
  std::vector<NodeId> cores;
  std::optional<scenario::ChurnSchedule> schedule;
  std::size_t next = 0;
  std::uint64_t applied = 0;
  std::uint64_t bad_events = 0;
  {
    Scope run(c.spans, "bench.run");
    c.t_start = NowNs();
    w.MakeGrid(c, side);
    w.MakeDomain(c, FastQueryIgmpConfig(), [&](core::CbtDomain& d) {
      // Cores sit inside the member block so join paths stay local.
      for (std::uint32_t g = 0; g < params.groups; ++g) {
        const std::uint32_t at = ((g + 1) * member_lans) / (params.groups + 1);
        cores.push_back(w.topo.routers[std::min(at, member_lans - 1)]);
        d.RegisterGroup(ChurnGroup(g), {cores.back()});
      }
    });
    core::CbtDomain& domain = *w.domain;
    netsim::Simulator& sim = *w.sim;
    {
      Scope phase(c.spans, "bench.members");
      Scope s(c.spans, "igmp.add_aggregate");
      for (std::uint32_t i = 0; i < member_lans; ++i) {
        w.stations.push_back(&domain.AddAggregate(
            w.topo.router_lans[i], "agg" + std::to_string(i),
            igmp::MembershipAggregate::Mode::kCoalesced));
      }
    }
    {
      Scope phase(c.spans, "bench.schedule");
      Scope s(c.spans, "cbt.churn_schedule");
      schedule.emplace(
          scenario::ChurnSchedule::Generate(params, member_lans, c.opts.seed));
    }
    const std::vector<scenario::MembershipEvent>& events = schedule->events();

    const auto apply = [&](const scenario::MembershipEvent& e) {
      igmp::MembershipAggregate& st = *w.stations[e.lan];
      const Ipv4Address group = ChurnGroup(e.group);
      const std::uint64_t had = st.MemberCount(group);
      {
        Scope s(c.spans, "igmp.call");
        if (e.join) {
          st.Join(group);
        } else {
          st.Leave(group);
        }
      }
      ++c.igmp_calls;
      ++applied;
      // A join adds exactly one member, a leave removes exactly one.
      if (st.MemberCount(group) + (e.join ? 0 : 1) != had + (e.join ? 1 : 0)) {
        ++bad_events;
      }
    };

    // Warm start: the t = 0 members join directly, then the tree forms.
    SimTime t0 = 0;
    {
      Scope phase(c.spans, "bench.warmup");
      {
        Scope s(c.spans, "cbt.start");
        domain.Start();
      }
      while (next < events.size() && events[next].at == 0) apply(events[next++]);
      RunTo(c, sim, warmup);
      if (!PollClean(c, domain, warmup + 60 * kSecond)) {
        c.Fail("churn warm-up never reached a clean audit");
      }
      t0 = sim.Now();
    }
    const std::uint64_t warm_applied = applied;
    w.EndSetup(c);

    // Measured phase: the rest of the schedule, shifted to start at t0.
    std::function<void()> pump = [&] {
      const SimTime at = events[next].at;
      while (next < events.size() && events[next].at == at) apply(events[next++]);
      if (next < events.size()) sim.ScheduleAt(t0 + events[next].at, pump);
    };
    {
      Scope s(c.spans, "bench.measure");
      if (next < events.size()) sim.ScheduleAt(t0 + events[next].at, pump);
      RunTo(c, sim, t0 + params.duration);
    }
    w.EndMeasure(c);
    c.work = static_cast<double>(applied - warm_applied);

    // Check: drain to a clean audit, tree-quality oracle, digest.
    Scope check(c.spans, "bench.check");
    analysis::AuditReport final_audit;
    const bool clean =
        PollClean(c, domain, sim.Now() + 60 * kSecond, &final_audit)
            .has_value();
    if (!clean) c.Fail("churn drain ended with invariant violations");
    if (next != events.size()) c.Fail("churn schedule not fully applied");

    // Expected end-state membership, replayed from the schedule.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> expect;
    for (const scenario::MembershipEvent& e : events) {
      expect[{e.lan, e.group}] += e.join ? 1 : -1;
    }
    Digest digest;
    std::uint64_t final_members = 0;
    for (std::uint32_t g = 0; g < params.groups; ++g) {
      std::vector<NodeId> member_routers;
      for (std::uint32_t i = 0; i < member_lans; ++i) {
        const std::uint64_t n = w.stations[i]->MemberCount(ChurnGroup(g));
        final_members += n;
        digest.Mix(n);
        const auto it = expect.find({i, g});
        if (static_cast<std::int64_t>(n) !=
            (it == expect.end() ? 0 : it->second)) {
          ++bad_events;
        }
        if (n > 0) member_routers.push_back(w.topo.routers[i]);
      }
      if (member_routers.size() < 2) continue;
      // Up to 3 senders spread evenly across the member list.
      std::vector<NodeId> senders;
      const std::size_t k = std::min<std::size_t>(3, member_routers.size());
      for (std::size_t s = 0; s < k; ++s) {
        senders.push_back(member_routers[s * (member_routers.size() - 1) /
                                         std::max<std::size_t>(1, k - 1)]);
      }
      analysis::TreeQuality q;
      {
        Scope s(c.spans, "analysis.tree_quality");
        q = analysis::CompareTreeQuality(domain.routes(), cores[g],
                                         member_routers, senders);
      }
      digest.Mix(q.shared_cost);
      digest.MixDouble(q.mean_source_cost);
    }
    {
      Scope s(c.spans, "bench.digest");
      digest.MixRouters(domain);
      digest.MixSubnets(sim);
      for (const igmp::MembershipAggregate* st : w.stations) {
        const igmp::MembershipAggregate::Stats& ss = st->stats();
        for (const std::uint64_t v :
             {ss.joins, ss.leaves, ss.reports_sent, ss.core_reports_sent,
              ss.leaves_sent, ss.queries_seen, ss.responses_suppressed}) {
          digest.Mix(v);
        }
      }
      digest.MixAudit(final_audit);
    }
    c.digest = digest.value();
    c.attempted = applied + 1;
    c.failed = bad_events + (clean ? 0 : 1);
    c.info["membership_events"] = static_cast<double>(events.size());
    c.info["final_members"] = static_cast<double>(final_members);
    c.info["warm_clean_at_s"] = static_cast<double>(t0) / kSecond;
    w.Finish(c);
  }
  w.Probes(c);
}

// --- dataplane-256 -----------------------------------------------------------
// Steady multicast traffic from non-member senders: relay toward the core,
// tree fan-out and member-LAN delivery on the flow-cache fast path.

Ipv4Address DataGroup(std::uint32_t g) {
  return Ipv4Address(239, 12, static_cast<std::uint8_t>((g >> 8) & 0xff),
                     static_cast<std::uint8_t>(g & 0xff));
}

void RunDataplane(Ctx& c) {
  const bool tiny = c.opts.tiny;
  const int side = tiny ? 8 : 16;
  const std::uint32_t groups = tiny ? 2 : 8;
  const std::uint32_t members = tiny ? 4 : 8;
  const std::uint32_t senders = tiny ? 2 : 4;
  const std::uint32_t packets = tiny ? 100 : 500;
  const SimDuration warmup = 30 * kSecond;
  const SimDuration window = 60 * kSecond;
  const SimDuration drain = kSecond;
  const SimDuration period = window / packets;
  const std::uint32_t streams = senders * groups;

  World w(c);
  std::vector<core::HostAgent*> receivers;
  std::vector<core::HostAgent*> sources;
  struct Stream {
    std::uint32_t sender;
    std::uint32_t group;
    SimDuration offset;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Stream> plan;
  std::uint64_t sent = 0;
  {
    Scope run(c.spans, "bench.run");
    c.t_start = NowNs();
    w.MakeGrid(c, side);
    const auto lan_count = static_cast<std::uint32_t>(w.topo.router_lans.size());
    // Group g uses fixed layout layout[g] (core position and member
    // LANs). The seed permutes groups over layouts and orders the stream
    // starts, so inputs differ per seed while the trees, and with them
    // the work, stay the same.
    std::vector<std::uint32_t> layout(groups);
    std::vector<std::uint32_t> start_rank(streams);
    for (std::uint32_t i = 0; i < groups; ++i) layout[i] = i;
    for (std::uint32_t i = 0; i < streams; ++i) start_rank[i] = i;
    Rng rng(c.opts.seed);
    rng.Shuffle(layout);
    rng.Shuffle(start_rank);
    w.MakeDomain(c, FastQueryIgmpConfig(), [&](core::CbtDomain& d) {
      for (std::uint32_t g = 0; g < groups; ++g) {
        const std::uint32_t at = ((layout[g] + 1) * lan_count) / (groups + 1);
        const NodeId core = w.topo.routers[std::min(at, lan_count - 1)];
        d.RegisterGroup(DataGroup(g), {core});
      }
    });
    core::CbtDomain& domain = *w.domain;
    netsim::Simulator& sim = *w.sim;
    {
      Scope phase(c.spans, "bench.members");
      Scope s(c.spans, "cbt.add_host");
      // Members spread across the grid, offset per layout.
      for (std::uint32_t g = 0; g < groups; ++g) {
        for (std::uint32_t m = 0; m < members; ++m) {
          const std::uint32_t lan =
              ((m * lan_count) / members + layout[g] * 7) % lan_count;
          receivers.push_back(&domain.AddHost(
              w.topo.router_lans[lan],
              "m" + std::to_string(g) + "_" + std::to_string(m)));
        }
      }
      // Non-member senders on the tail LANs: every packet is relayed
      // toward the core before it reaches the shared tree.
      for (std::uint32_t s2 = 0; s2 < senders; ++s2) {
        const std::uint32_t lan = (lan_count - 1 - s2) % lan_count;
        sources.push_back(
            &domain.AddHost(w.topo.router_lans[lan], "src" + std::to_string(s2)));
      }
    }
    {
      Scope phase(c.spans, "bench.schedule");
      for (std::uint32_t g = 0; g < groups; ++g) {
        for (std::uint32_t m = 0; m < members; ++m) {
          core::HostAgent* host = receivers[g * members + m];
          const Ipv4Address group = DataGroup(g);
          sim.Schedule(kSecond, [&c, host, group] {
            Scope s(c.spans, "igmp.call");
            host->JoinGroup(group);
            ++c.igmp_calls;
          });
        }
      }
      // Half the streams carry 64 B payloads, half 1400 B, so both the
      // per-packet and the per-byte costs show.
      for (std::uint32_t s2 = 0; s2 < senders; ++s2) {
        for (std::uint32_t g = 0; g < groups; ++g) {
          const std::uint32_t stream = s2 * groups + g;
          Stream st{s2, g, (period * start_rank[stream]) / streams,
                    std::vector<std::uint8_t>(stream % 2 == 0 ? 64 : 1400)};
          st.payload[4] = static_cast<std::uint8_t>(g);
          st.payload[5] = static_cast<std::uint8_t>(s2);
          plan.push_back(std::move(st));
        }
      }
    }
    {
      Scope phase(c.spans, "bench.warmup");
      {
        Scope s(c.spans, "cbt.start");
        domain.Start();
      }
      RunTo(c, sim, warmup);
      if (!PollClean(c, domain, warmup + 60 * kSecond)) {
        c.Fail("dataplane warm-up never reached a clean audit");
      }
    }
    w.EndSetup(c);

    std::function<void(std::size_t, std::uint32_t)> pump =
        [&](std::size_t i, std::uint32_t seq) {
          Stream& st = plan[i];
          st.payload[0] = static_cast<std::uint8_t>(seq >> 24);
          st.payload[1] = static_cast<std::uint8_t>(seq >> 16);
          st.payload[2] = static_cast<std::uint8_t>(seq >> 8);
          st.payload[3] = static_cast<std::uint8_t>(seq);
          {
            Scope s(c.spans, "cbt.send");
            sources[st.sender]->SendToGroup(DataGroup(st.group), st.payload);
          }
          ++sent;
          if (seq + 1 < packets) {
            sim.Schedule(period, [&pump, i, seq] { pump(i, seq + 1); });
          }
        };
    // Measured phase: the traffic window plus a drain long enough for
    // the last packets to reach every member.
    const SimTime t0 = sim.Now();
    std::uint64_t at_window_end = 0;
    {
      Scope s(c.spans, "bench.measure");
      for (std::size_t i = 0; i < plan.size(); ++i) {
        sim.ScheduleAt(t0 + plan[i].offset, [&pump, i] { pump(i, 0); });
      }
      RunTo(c, sim, t0 + window);
      for (const core::HostAgent* h : receivers) {
        at_window_end += h->received().size();
      }
      RunTo(c, sim, t0 + window + drain);
    }
    w.EndMeasure(c);
    c.work = static_cast<double>(c.measured.hops);

    Scope check(c.spans, "bench.check");
    analysis::AuditReport final_audit;
    const bool clean =
        PollClean(c, domain, sim.Now() + 60 * kSecond, &final_audit)
            .has_value();
    if (!clean) c.Fail("dataplane run ended with invariant violations");
    if (sent != static_cast<std::uint64_t>(packets) * streams) {
      c.Fail("dataplane sent the wrong number of packets");
    }
    Digest digest;
    ReceptionTally tally;
    {
      Scope s(c.spans, "bench.digest");
      std::vector<Ipv4Address> source_addresses;
      for (const core::HostAgent* h : sources) source_addresses.push_back(h->address());
      for (std::size_t r = 0; r < receivers.size(); ++r) {
        const Ipv4Address group = DataGroup(static_cast<std::uint32_t>(r / members));
        const std::vector<core::HostAgent::Received>& got = receivers[r]->received();
        if (r == 0 && c.opts.inject_reception_faults && got.size() >= 2) {
          // Self-test only: the last reception goes missing and the first
          // arrives twice, so the reception count itself is unchanged.
          std::vector<core::HostAgent::Received> altered = got;
          altered.back() = altered.front();
          tally.Add(altered, group, source_addresses, packets);
        } else {
          tally.Add(got, group, source_addresses, packets);
        }
        digest.MixReceived(*receivers[r]);
      }
      digest.MixRouters(domain);
      digest.MixSubnets(sim);
      digest.MixAudit(final_audit);
    }
    if (tally.unexpected > 0) {
      c.Fail("dataplane members received packets of another group or stream");
    }
    const std::uint64_t delivered = tally.delivered;
    const std::uint64_t expected = sent * members;
    c.digest = digest.value();
    c.attempted = expected;
    c.failed = clean ? tally.failed : c.attempted;
    c.delivery_ratio =
        expected > 0 ? static_cast<double>(delivered) / static_cast<double>(expected) : 0;
    c.info["packets_sent"] = static_cast<double>(sent);
    c.info["receptions_expected"] = static_cast<double>(expected);
    c.info["receptions_at_window_end"] = static_cast<double>(at_window_end);
    c.info["receptions_after_drain"] = static_cast<double>(delivered);
    w.Finish(c);
  }
  w.Probes(c);
}

// --- chaos-256 ---------------------------------------------------------------
// A plan of link flaps, router crash/restart and partitions; after each
// repair the auditor is polled until the domain is clean again.

constexpr Ipv4Address kChaosGroup(239, 9, 9, 9);
// The fault plan is the same on every seed: which routers a plan happens
// to hit decides how many per-source SPF tables exist, and with them the
// run's memory and time, so a seeded plan would make seeds incomparable.
// The seed drives the simulator's own draws instead: host report delays
// and the alternate core each reconnecting router picks.
constexpr std::uint64_t kChaosPlanSeed = 1;

void RunChaos(Ctx& c) {
  const bool tiny = c.opts.tiny;
  const int side = tiny ? 8 : 16;
  const int faults = tiny ? 4 : 60;
  const SimDuration recovery_cap = 240 * kSecond;
  const SimDuration send_period = 2 * kSecond;

  World w(c);
  // Timers tightened uniformly so many fault/repair cycles fit in a run.
  w.config.echo_interval = 5 * kSecond;
  w.config.echo_timeout = 15 * kSecond;
  w.config.pend_join_interval = 2 * kSecond;
  w.config.pend_join_timeout = 8 * kSecond;
  w.config.expire_pending_join = 30 * kSecond;
  w.config.child_assert_interval = 10 * kSecond;
  w.config.child_assert_expire = 25 * kSecond;
  w.config.iff_scan_interval = 60 * kSecond;
  w.config.reconnect_timeout = 30 * kSecond;
  w.config.proxy_refresh_interval = 20 * kSecond;

  std::vector<core::HostAgent*> hosts;
  std::vector<NodeId> cores;
  netsim::ChaosPlan plan;
  std::optional<netsim::ChaosInjector> injector;
  std::uint64_t sent = 0;
  {
    Scope run(c.spans, "bench.run");
    c.t_start = NowNs();
    w.MakeGrid(c, side);
    const std::size_t n = w.topo.router_lans.size();
    const std::vector<std::size_t> member_lans = {0, n / 3, (2 * n) / 3, n - 1};
    cores = {w.topo.routers[0], w.topo.routers[n - 1]};
    w.MakeDomain(c, FastQueryIgmpConfig(), [&](core::CbtDomain& d) {
      d.RegisterGroup(kChaosGroup, cores);
      d.Start();
      RunTo(c, *w.sim, kSecond);  // members attach once the routers run
    });
    core::CbtDomain& domain = *w.domain;
    netsim::Simulator& sim = *w.sim;
    {
      Scope phase(c.spans, "bench.members");
      for (const std::size_t lan : member_lans) {
        {
          Scope s(c.spans, "cbt.add_host");
          hosts.push_back(&domain.AddHost(w.topo.router_lans[lan],
                                          "m" + std::to_string(lan)));
        }
        Scope s(c.spans, "igmp.call");
        hosts.back()->JoinGroup(kChaosGroup);
        ++c.igmp_calls;
      }
    }
    netsim::ChaosPlanParams params;
    params.event_count = faults;
    params.start = 90 * kSecond;
    params.min_gap = 60 * kSecond;
    params.max_gap = 120 * kSecond;
    params.min_down = 5 * kSecond;
    params.max_down = 20 * kSecond;
    {
      Scope phase(c.spans, "bench.schedule");
      // Targets: every router but the cores, every backbone subnet.
      std::vector<NodeId> crashable;
      for (const NodeId id : w.topo.routers) {
        if (std::find(cores.begin(), cores.end(), id) == cores.end()) {
          crashable.push_back(id);
        }
      }
      std::vector<SubnetId> flappable;
      for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
        const SubnetId sid(static_cast<std::int32_t>(s));
        if (std::find(w.topo.router_lans.begin(), w.topo.router_lans.end(),
                      sid) == w.topo.router_lans.end()) {
          flappable.push_back(sid);
        }
      }
      {
        Scope s(c.spans, "netsim.chaos_plan");
        plan = netsim::MakeRandomPlan(kChaosPlanSeed, params, crashable,
                                      flappable);
      }
      netsim::ChaosInjector::Hooks hooks = domain.ChaosHooks();
      hooks.on_crash = [&c, crash = hooks.on_crash](NodeId id) {
        Scope s(c.spans, "cbt.hook");
        crash(id);
      };
      hooks.on_restart = [&c, restart = hooks.on_restart](NodeId id) {
        Scope s(c.spans, "cbt.hook");
        restart(id);
      };
      {
        Scope s(c.spans, "netsim.chaos_arm");
        injector.emplace(sim, std::move(hooks));
        injector->Arm(plan);
      }
      // Steady traffic from the first member for the whole run.
      const SimTime traffic_end = plan.LastRepairTime() + recovery_cap;
      for (SimTime t = 30 * kSecond; t < traffic_end; t += send_period) {
        sim.ScheduleAt(t, [&c, &hosts, &sent] {
          Scope s(c.spans, "cbt.send");
          hosts[0]->SendToGroup(kChaosGroup, std::vector<std::uint8_t>{0xda});
          ++sent;
        });
      }
    }
    {
      Scope phase(c.spans, "bench.warmup");
      RunTo(c, sim, 60 * kSecond);
      if (!PollClean(c, domain, params.start - kSecond)) {
        c.Fail("chaos warm-up never reached a clean audit");
      }
    }
    w.EndSetup(c);

    Digest digest;
    std::uint64_t stuck = 0;
    std::optional<SimTime> final_clean;
    analysis::AuditReport final_audit;
    {
      Scope s(c.spans, "bench.measure");
      for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const netsim::ChaosEvent& e = plan.events[i];
        RunTo(c, sim, e.repair_at());
        SimTime deadline = e.repair_at() + recovery_cap;
        if (i + 1 < plan.events.size()) {
          deadline = std::min(deadline, plan.events[i + 1].at - kSecond);
        }
        if (const auto clean = PollClean(c, domain, deadline)) {
          digest.Mix(static_cast<std::uint64_t>(*clean - e.at));
        } else {
          ++stuck;
          digest.Mix(~std::uint64_t{0});
        }
      }
      final_clean = PollClean(c, domain, sim.Now() + recovery_cap, &final_audit);
      RunTo(c, sim, plan.LastRepairTime() + recovery_cap);
    }
    w.EndMeasure(c);
    c.work = static_cast<double>(plan.events.size() - stuck);

    Scope check(c.spans, "bench.check");
    if (!final_clean) c.Fail("chaos run ended with invariant violations");
    if (stuck > 0) c.Fail("chaos faults stuck past the recovery cap");
    std::uint64_t delivered = 0;
    {
      Scope s(c.spans, "bench.digest");
      for (const core::HostAgent* h : hosts) digest.MixReceived(*h);
      for (std::size_t i = 1; i < hosts.size(); ++i) {
        delivered += hosts[i]->ReceivedCount(kChaosGroup);
      }
      digest.Mix(final_clean ? static_cast<std::uint64_t>(*final_clean) : 0);
      digest.MixRouters(domain);
      digest.MixSubnets(sim);
      digest.MixAudit(final_audit);
    }
    const std::uint64_t expected = sent * (hosts.size() - 1);
    c.digest = digest.value();
    c.attempted = plan.events.size();
    c.failed = final_clean ? stuck : plan.events.size();
    c.delivery_ratio =
        expected > 0 ? static_cast<double>(delivered) / static_cast<double>(expected) : 0;
    c.info["faults"] = static_cast<double>(plan.events.size());
    c.info["packets_sent"] = static_cast<double>(sent);
    c.info["receptions_expected"] = static_cast<double>(expected);
    c.info["receptions"] = static_cast<double>(delivered);
    c.info["simulated_s"] = static_cast<double>(sim.Now()) / kSecond;
    w.Finish(c);
  }
  w.Probes(c);
}

// --- Report ----------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Summed durations (ns) of the spans named `name`.
double SpanTotal(const std::vector<Span>& spans, std::string_view name) {
  double total = 0;
  for (const Span& s : spans) {
    if (name == s.name) total += static_cast<double>(s.duration());
  }
  return total;
}

/// Nearest-rank percentile of the durations (ns) of spans named `name`.
double SpanPercentile(const std::vector<Span>& spans, std::string_view name,
                      double q) {
  std::vector<std::int64_t> d;
  for (const Span& s : spans) {
    if (name == s.name) d.push_back(s.duration());
  }
  if (d.empty()) return 0;
  std::sort(d.begin(), d.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(d.size()));
  return static_cast<double>(d[std::min(rank, d.size() - 1)]);
}

double SpanMean(const std::vector<Span>& spans, std::string_view name) {
  const auto n = std::count_if(spans.begin(), spans.end(),
                               [&](const Span& s) { return name == s.name; });
  return Ratio(SpanTotal(spans, name), static_cast<double>(n));
}

/// How far the run tree's duration may differ from the reported traced
/// wall. The two are read a few clock calls apart at each end; the slack
/// leaves room for the thread being preempted between those calls.
constexpr std::int64_t kSpanSlackNs = 1'000'000;

/// Per-layer metrics of a traced run. Self times come from the
/// "bench.run" tree only; the probes tree is timed separately.
std::map<std::string, double> LayerMetrics(Ctx& c) {
  std::map<std::string, double> m;
  const std::vector<Span>& spans = c.spans.spans();
  const Totals& t = c.measured;
  const double work = c.work;

  for (const char* phase :
       {"topology", "domain", "members", "schedule", "warmup"}) {
    m[std::string("setup.") + phase + "_ms"] =
        SpanTotal(spans, std::string("bench.") + phase) / 1e6;
  }

  // Self time per layer over the run tree. Every child's duration is
  // charged to its parent, so the self times sum to the root's duration
  // by construction.
  std::map<std::string, std::int64_t> self;
  for (const std::string layer :
       {"bench", "netsim", "igmp", "cbt", "analysis", "obs"}) {
    self[layer] = 0;
  }
  std::int64_t root_ns = 0;
  std::int64_t run_self = 0;
  std::vector<bool> in_run(spans.size(), false);
  for (const Span& s : spans) {
    in_run[static_cast<std::size_t>(s.id)] =
        s.parent < 0 ? std::string_view(s.name) == "bench.run"
                     : in_run[static_cast<std::size_t>(s.parent)];
    if (!in_run[static_cast<std::size_t>(s.id)]) continue;
    if (s.parent < 0) root_ns = s.duration();
    self[std::string(s.layer())] += s.self();
    if (std::string_view(s.name) == "netsim.run") run_self += s.self();
  }
  // The check: the run tree must cover the wall time this traced run
  // reports, from the first call into the simulator to the last check.
  const std::int64_t wall_ns = c.t_end - c.t_start;
  if (std::abs(root_ns - wall_ns) > kSpanSlackNs) {
    c.Fail("layer self times do not sum to the traced wall");
  }
  for (const auto& [layer, ns] : self) m["self_ms." + layer] = ns / 1e6;
  m["traced.wall_ms"] = wall_ns / 1e6;
  m["run.self_ms"] = run_self / 1e6;

  m["netsim.frames"] = static_cast<double>(t.frames);
  m["netsim.frames_dropped"] = static_cast<double>(t.frames_dropped);
  m["netsim.frames_per_work"] = Ratio(static_cast<double>(t.frames), work);
  m["netsim.arena_makes"] = static_cast<double>(t.arena_makes);
  m["netsim.arena_reuses"] = static_cast<double>(t.arena_reuses);
  m["netsim.arena_buffers"] = static_cast<double>(c.arena_buffers);
  m["netsim.event_slots"] = static_cast<double>(c.event_slots);
  m["netsim.pending_events_peak"] = static_cast<double>(c.pending_peak);

  const double frames = c.probes["packet.frames"];
  m["packet.parse_ns"] = Ratio(SpanTotal(spans, "packet.parse"), frames);
  m["packet.checksum_ns"] = Ratio(SpanTotal(spans, "packet.checksum"), frames);

  const routing::RouteManager::Stats& r = c.routing;
  m["routing.spf_runs"] = static_cast<double>(r.tables_computed);
  m["routing.tables_dirtied"] = static_cast<double>(r.tables_dirtied);
  m["routing.kept_warm"] = static_cast<double>(r.tables_kept_warm);
  m["routing.lookups"] = static_cast<double>(r.lookups);
  m["routing.lpm_hit_ratio"] =
      Ratio(static_cast<double>(r.lpm_cache_hits), static_cast<double>(r.lookups));
  m["routing.spf_ns"] =
      Ratio(SpanTotal(spans, "routing.spf"), c.probes["routing.spf_tables"]);

  m["igmp.calls"] = static_cast<double>(c.igmp_calls);
  m["igmp.call_ns_p50"] = SpanPercentile(spans, "igmp.call", 0.50);
  m["igmp.call_ns_p99"] = SpanPercentile(spans, "igmp.call", 0.99);
  m["igmp.reports_sent"] = static_cast<double>(t.reports);
  m["igmp.core_reports_sent"] = static_cast<double>(t.core_reports);
  m["igmp.suppression_ratio"] =
      Ratio(static_cast<double>(t.suppressed),
            static_cast<double>(t.suppressed + t.reports));

  m["cbt.ctl_msgs"] = static_cast<double>(t.ctl_msgs);
  m["cbt.ctl_msgs_per_work"] = Ratio(static_cast<double>(t.ctl_msgs), work);
  m["cbt.joins"] = static_cast<double>(t.joins);
  m["cbt.quits"] = static_cast<double>(t.quits);
  m["cbt.echoes"] = static_cast<double>(t.echoes);
  m["cbt.reconnects_failed"] = static_cast<double>(t.reconnects_failed);
  m["cbt.hook_ns"] = SpanMean(spans, "cbt.hook");
  m["cbt.hops"] = static_cast<double>(t.hops);
  m["cbt.cache_hit_ratio"] =
      Ratio(static_cast<double>(t.cache_hits),
            static_cast<double>(t.cache_hits + t.cache_misses + t.cache_invalidates));
  m["cbt.cache_invalidates"] = static_cast<double>(t.cache_invalidates);
  m["cbt.copies_per_hop"] =
      Ratio(static_cast<double>(t.arena_makes), static_cast<double>(t.hops));
  m["cbt.delivery_ratio"] = c.delivery_ratio;
  m["cbt.drops.off_tree"] = static_cast<double>(t.drop_off_tree);
  m["cbt.drops.ttl"] = static_cast<double>(t.drop_ttl);
  m["cbt.drops.no_state"] = static_cast<double>(t.drop_no_state);
  m["cbt.drops.not_local"] = static_cast<double>(t.drop_not_local);
  m["cbt.send_ns"] = SpanMean(spans, "cbt.send");
  m["cbt.stage_ns_per_hop"] =
      Ratio(Ratio(c.probes["stage_cycles"], c.probes["cycles_per_ns"]),
            c.probes["stage_hops"]);

  m["analysis.audits"] = static_cast<double>(c.audits);
  m["analysis.audit_ms_total"] = SpanTotal(spans, "analysis.audit") / 1e6;
  m["analysis.audit_ms_p50"] = SpanPercentile(spans, "analysis.audit", 0.5) / 1e6;
  m["analysis.tree_quality_ms"] = SpanTotal(spans, "analysis.tree_quality") / 1e6;

  m["check.expectations_ms"] = SpanTotal(spans, "check.expectations") / 1e6;
  m["check.failed"] = c.probes["check.failed"];
  return m;
}

/// Peak RSS of this process image. VmHWM starts afresh at exec, whereas
/// ru_maxrss keeps the high-water mark of the process that forked us
/// (the Python runner), which can exceed a small workload's own.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  }
  return 0;
}

void PrintJson(Ctx& c) {
  std::map<std::string, double> layers;
  if (c.opts.traced) layers = LayerMetrics(c);
  const double peak_rss_mb = PeakRssMb();
  const double measure_s = static_cast<double>(c.t_measure_end - c.t_setup_end) / 1e9;
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(c.digest));

  std::ostringstream os;
  os.precision(12);
  os << "{\"workload\":\"" << c.opts.workload << "\",\"seed\":" << c.opts.seed
     << ",\"traced\":" << (c.opts.traced ? "true" : "false")
     << ",\"tiny\":" << (c.opts.tiny ? "true" : "false")
     << ",\"ok\":" << (c.errors.empty() ? "true" : "false") << ",\"errors\":[";
  for (std::size_t i = 0; i < c.errors.size(); ++i) {
    os << (i ? "," : "") << '"' << c.errors[i] << '"';
  }
  os << "],\"digest\":\"" << digest << "\""
     << ",\"wall_s\":" << static_cast<double>(c.t_end - c.t_start) / 1e9
     << ",\"setup_s\":" << static_cast<double>(c.t_setup_end - c.t_start) / 1e9
     << ",\"measure_s\":" << measure_s << ",\"work\":" << c.work
     << ",\"work_per_s\":" << Ratio(c.work, measure_s)
     << ",\"attempted\":" << c.attempted << ",\"failed\":" << c.failed
     << ",\"peak_rss_mb\":" << peak_rss_mb << ",\"info\":{";
  bool first = true;
  for (const auto& [k, v] : c.info) {
    os << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  os << "},\"layers\":{";
  first = true;
  for (const auto& [k, v] : layers) {
    os << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: cbtbench_driver --workload churn-256|dataplane-256|"
               "chaos-256 --seed N [--traced] [--tiny] [--spans FILE]\n"
               "                       [--inject-reception-faults]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      opts.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return Usage();
    } else if (arg == "--spans" && has_value) {
      opts.spans_path = argv[++i];
    } else if (arg == "--traced") {
      opts.traced = true;
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--inject-reception-faults") {
      opts.inject_reception_faults = true;
    } else {
      return Usage();
    }
  }
  const std::map<std::string, void (*)(Ctx&)> workloads = {
      {"churn-256", RunChurn},
      {"dataplane-256", RunDataplane},
      {"chaos-256", RunChaos},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) return Usage();

  Ctx c(opts);
  it->second(c);
  if (!opts.spans_path.empty() && opts.traced && !c.spans.Write(opts.spans_path)) {
    c.Fail("cannot write spans file");
  }
  PrintJson(c);
  return c.errors.empty() ? 0 : 1;
}
