// Shared CLI + reporting layer for the experiment binaries.
//
// Every bench speaks the same flag dialect (bench::Options):
//
//   --csv           machine-readable CSV instead of aligned tables
//   --smoke         shrunken workload for CI smoke runs
//   --seed N        master RNG seed (default 1)
//   --repeat N      repeat the measured sweep with seeds seed..seed+N-1
//   --json FILE     write a structured report (bench::JsonReporter)
//   --trace FILE    record an obs trace and export Chrome trace_event
//                   JSON at the end of the run
//   --jobs N        worker threads for independent simulation replicas
//                   (exec::Pool). 0 = hardware concurrency; 1 = the
//                   exact serial legacy path. Output is byte-identical
//                   for every N — replicas are isolated in RunContexts
//                   and reduced in replica order (see src/exec/).
//                   The timing microbench bench_codec defaults to 1 so
//                   parallel replicas cannot distort its wall-clock
//                   numbers; --jobs opts in explicitly.
//   --exec-json F   write per-replica + aggregate wall-clock of the
//                   replica executor to F (default BENCH_exec.json;
//                   deliberately a separate file: the bench's own JSON
//                   stays byte-identical across --jobs values)
//   --help          usage
//
// plus whatever bench-specific flags each binary registers (--events,
// --routers, --dataplane, --plan, ...). Unknown flags are an
// error: usage goes to stderr and the bench exits 2, so typos no longer
// silently run the default workload.
//
// A bench main parses its Options, builds one bench::Harness (trace,
// replica pool, exec report and JSON report), runs its sweeps through
// it and returns Harness::Finish(rc). Exit codes shared by every bench:
//
//   0  success
//   1  a failed check: dirty invariant audit, expectation violations
//   2  usage error
//   3  a failed gate: --min-* bounds, fast/slow divergence, a migration
//      that was not hitless
//   4  a requested file (--json, --exec-json, --trace, --check-json)
//      could not be written (kWriteFailed; an earlier nonzero code wins)
//
// All BENCH_*.json files share one schema (schema_version 1):
//
//   { "bench": "<name>", "schema_version": 1,
//     "params": { "<key>": <value>, ... },
//     "series": [ { "name": "...", "units": "...",
//                   "points": [ { "label": "...", "value": ... } ] } ] }
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/table.h"
#include "cbt/domain.h"
#include "check/cbt_expectations.h"
#include "check/expectation.h"
#include "check/trace_view.h"
#include "exec/pool.h"
#include "exec/run_context.h"
#include "exec/sweep.h"
#include "netsim/packet_arena.h"
#include "obs/trace.h"

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace cbt::bench {

/// Prints the table in the selected format. In CSV mode, `tag` is emitted
/// as a section marker line (`# <tag>`) so multi-table benches stay
/// parseable. `os` defaults to stdout; replica jobs pass their
/// RunContext::out instead.
inline void Emit(const analysis::Table& table, bool csv, const char* tag,
                 std::ostream& os = std::cout) {
  if (csv) {
    os << "# " << tag << "\n";
    table.PrintCsv(os);
  } else {
    table.Print(os);
  }
}

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

class Options {
 public:
  Options(std::string bench_name, std::string synopsis)
      : bench_name_(std::move(bench_name)), synopsis_(std::move(synopsis)) {
    Flag("csv", &csv, "emit CSV tables instead of aligned text");
    Flag("smoke", &smoke, "shrunken workload for CI smoke runs");
    U64("seed", &seed, "master RNG seed");
    Int("repeat", &repeat, "repeat the sweep with seeds seed..seed+N-1");
    Str("json", &json_path, "write the structured report to FILE");
    Str("trace", &trace_path, "export a Chrome trace_event JSON to FILE");
    Int("jobs", &jobs,
        "replica worker threads (0 = hardware concurrency, 1 = serial)");
    Str("exec-json", &exec_json_path,
        "write executor wall-clock report to FILE (empty disables)");
  }

  // Built-ins; assign before Parse() to change a bench's defaults
  // (e.g. codec defaults json_path to BENCH_codec.json).
  bool csv = false;
  bool smoke = false;
  std::uint64_t seed = 1;
  int repeat = 1;
  int jobs = 0;
  bool check = false;
  std::string json_path;
  std::string placement;
  std::string trace_path;
  std::string exec_json_path = "BENCH_exec.json";

  /// Opt-in registration of --placement for benches that sweep the core
  /// placement registry (src/cbt/core_selection.h): restricts the sweep
  /// to one strategy by registry name. Empty = sweep every strategy.
  void EnablePlacement() {
    Str("placement", &placement,
        "restrict the core-placement sweep to one registry name "
        "(random | degree | centre | delay-centre | hash | locality | vns)");
  }

  /// Opt-in registration of --check: the Harness gives every replica a
  /// trace ring, which the bench replays through the causal-path
  /// expectation suite (src/check/).
  void EnableCheck() {
    Flag("check", &check,
         "validate every failure-recovery path with the causal-path "
         "expectation suite (exit 1 on violations)");
  }

  /// Registers a bench-specific boolean flag (present => true).
  void Flag(std::string name, bool* target, std::string help) {
    specs_.push_back({std::move(name), Spec::kBool, target, nullptr, nullptr,
                      nullptr, std::move(help)});
  }
  void Int(std::string name, int* target, std::string help) {
    specs_.push_back({std::move(name), Spec::kInt, nullptr, target, nullptr,
                      nullptr, std::move(help)});
  }
  void U64(std::string name, std::uint64_t* target, std::string help) {
    specs_.push_back({std::move(name), Spec::kU64, nullptr, nullptr, target,
                      nullptr, std::move(help)});
  }
  void Str(std::string name, std::string* target, std::string help) {
    specs_.push_back({std::move(name), Spec::kStr, nullptr, nullptr, nullptr,
                      target, std::move(help)});
  }

  /// Parses argv. On --help prints usage to stdout and exits 0; on any
  /// unknown flag or missing/garbled value prints usage to stderr and
  /// exits 2.
  void Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        PrintUsage(std::cout);
        std::exit(0);
      }
      if (arg.rfind("--", 0) != 0) Fail("unexpected argument '" + arg + "'");
      const std::string name = arg.substr(2);
      Spec* spec = Find(name);
      if (spec == nullptr) Fail("unknown flag '" + arg + "'");
      if (spec->kind == Spec::kBool) {
        *spec->b = true;
        continue;
      }
      if (i + 1 >= argc) Fail("flag '" + arg + "' expects a value");
      const std::string value = argv[++i];
      switch (spec->kind) {
        case Spec::kInt:
          if (!ParseInt(value, spec->i)) {
            Fail("flag '" + arg + "' expects an integer, got '" + value + "'");
          }
          break;
        case Spec::kU64:
          if (!ParseU64(value, spec->u)) {
            Fail("flag '" + arg + "' expects an integer, got '" + value + "'");
          }
          break;
        case Spec::kStr:
          *spec->s = value;
          break;
        case Spec::kBool:
          break;  // unreachable
      }
    }
    if (repeat < 1) Fail("--repeat expects a positive count");
  }

  const std::string& bench_name() const { return bench_name_; }

 private:
  struct Spec {
    enum Kind { kBool, kInt, kU64, kStr };
    std::string name;
    Kind kind;
    bool* b;
    int* i;
    std::uint64_t* u;
    std::string* s;
    std::string help;
  };

  Spec* Find(const std::string& name) {
    for (Spec& spec : specs_) {
      if (spec.name == name) return &spec;
    }
    return nullptr;
  }

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  // std::stoi/stoull skip leading blanks and stoull negates a leading
  // '-', so a value must start with a digit to be accepted: " -1" is no
  // more a uint64 than "-1" is. Every Int flag is a count, so ints take
  // the same rule and a negative count is rejected here.
  static bool ParseInt(const std::string& text, int* out) {
    if (text.empty() || !IsDigit(text.front())) return false;
    try {
      std::size_t pos = 0;
      const int v = std::stoi(text, &pos);
      if (pos != text.size()) return false;
      *out = v;
      return true;
    } catch (...) {
      return false;
    }
  }

  static bool ParseU64(const std::string& text, std::uint64_t* out) {
    if (text.empty() || !IsDigit(text.front())) return false;
    try {
      std::size_t pos = 0;
      const std::uint64_t v = std::stoull(text, &pos);
      if (pos != text.size()) return false;
      *out = v;
      return true;
    } catch (...) {
      return false;
    }
  }

  void PrintUsage(std::ostream& os) const {
    os << "usage: bench_" << bench_name_ << " [flags]\n"
       << "  " << synopsis_ << "\n\nflags:\n";
    for (const Spec& spec : specs_) {
      std::string left = "  --" + spec.name;
      if (spec.kind != Spec::kBool) left += " <value>";
      os << left;
      for (std::size_t pad = left.size(); pad < 24; ++pad) os << ' ';
      os << spec.help << "\n";
    }
  }

  [[noreturn]] void Fail(const std::string& message) const {
    std::cerr << "bench_" << bench_name_ << ": " << message << "\n\n";
    PrintUsage(std::cerr);
    std::exit(2);
  }

  std::string bench_name_;
  std::string synopsis_;
  std::vector<Spec> specs_;
};

// ---------------------------------------------------------------------
// JsonReporter
// ---------------------------------------------------------------------

/// Builds the common BENCH_*.json report. Values are stored as
/// pre-rendered JSON literals so integer counters round-trip exactly.
class JsonReporter {
 public:
  static constexpr int kSchemaVersion = 1;

  explicit JsonReporter(std::string bench) : bench_(std::move(bench)) {}

  void Param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, Quote(value));
  }
  void Param(const std::string& key, const char* value) {
    params_.emplace_back(key, Quote(value));
  }
  void Param(const std::string& key, bool value) {
    params_.emplace_back(key, value ? "true" : "false");
  }
  void Param(const std::string& key, std::uint64_t value) {
    params_.emplace_back(key, std::to_string(value));
  }
  void Param(const std::string& key, int value) {
    params_.emplace_back(key, std::to_string(value));
  }
  void Param(const std::string& key, double value) {
    params_.emplace_back(key, Number(value));
  }

  class Series {
   public:
    Series(std::string name, std::string units)
        : name_(std::move(name)), units_(std::move(units)) {}
    void Add(const std::string& label, double value) {
      points_.emplace_back(label, Number(value));
    }
    void Add(const std::string& label, std::uint64_t value) {
      points_.emplace_back(label, std::to_string(value));
    }
    void Add(const std::string& label, int value) {
      points_.emplace_back(label, std::to_string(value));
    }

   private:
    friend class JsonReporter;
    std::string name_;
    std::string units_;
    std::vector<std::pair<std::string, std::string>> points_;
  };

  Series& AddSeries(const std::string& name, const std::string& units) {
    series_.push_back(std::make_unique<Series>(name, units));
    return *series_.back();
  }

  /// Find-or-create: returns the existing series named `name` (units of
  /// the first creation win) so per-row helpers can keep appending
  /// points without producing duplicate-name series in the report.
  Series& SeriesNamed(const std::string& name, const std::string& units) {
    for (const auto& s : series_) {
      if (s->name_ == name) return *s;
    }
    return AddSeries(name, units);
  }

  /// Converts an analysis::Table: every numeric column becomes one
  /// series named "<tag>.<header>", with each row's first cell as the
  /// point label. Non-numeric cells are skipped.
  void AddTable(const std::string& tag, const analysis::Table& table,
                const std::string& units = "") {
    const auto& headers = table.headers();
    for (std::size_t col = 1; col < headers.size(); ++col) {
      Series* series = nullptr;
      for (const auto& row : table.rows()) {
        if (col >= row.size()) continue;
        double value = 0;
        if (!ParseNumber(row[col], &value)) continue;
        if (series == nullptr) {
          series = &AddSeries(tag + "." + headers[col], units);
        }
        series->Add(row.empty() ? "" : row[0], value);
      }
    }
  }

  void Write(std::ostream& os) const {
    os << "{\n  \"bench\": " << Quote(bench_)
       << ",\n  \"schema_version\": " << kSchemaVersion
       << ",\n  \"params\": {";
    for (std::size_t i = 0; i < params_.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    " << Quote(params_[i].first)
         << ": " << params_[i].second;
    }
    os << (params_.empty() ? "" : "\n  ") << "},\n  \"series\": [";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const Series& s = *series_[i];
      os << (i == 0 ? "\n" : ",\n") << "    {\"name\": " << Quote(s.name_)
         << ", \"units\": " << Quote(s.units_) << ", \"points\": [";
      for (std::size_t p = 0; p < s.points_.size(); ++p) {
        os << (p == 0 ? "\n" : ",\n") << "      {\"label\": "
           << Quote(s.points_[p].first) << ", \"value\": "
           << s.points_[p].second << "}";
      }
      os << (s.points_.empty() ? "" : "\n    ") << "]}";
    }
    os << (series_.empty() ? "" : "\n  ") << "]\n}\n";
  }

 private:
  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          out += c;
      }
    }
    out += '"';
    return out;
  }

  static std::string Number(double value) {
    std::ostringstream os;
    os.precision(12);
    os << value;
    const std::string text = os.str();
    // JSON requires a finite literal; our benches never produce inf/nan,
    // but a report must not silently become unparseable if one does.
    if (text.find_first_of("in") != std::string::npos &&
        text.find_first_of("0123456789") == std::string::npos) {
      return "null";
    }
    return text;
  }

  static bool ParseNumber(const std::string& text, double* out) {
    if (text.empty()) return false;
    try {
      std::size_t pos = 0;
      const double v = std::stod(text, &pos);
      if (pos != text.size()) return false;
      *out = v;
      return true;
    } catch (...) {
      return false;
    }
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::unique_ptr<Series>> series_;
};

// ---------------------------------------------------------------------
// MemorySample
// ---------------------------------------------------------------------

/// Snapshot of process memory plus (optionally) one simulator's packet
/// arena occupancy. Scale benches pair a sample per sweep row so a
/// BENCH_*.json records not just wall-clock but what the row cost in
/// resident memory — the whole point of an aggregate host model is the
/// RSS it does NOT spend.
struct MemorySample {
  std::uint64_t peak_rss_bytes = 0;     // high-water mark (ru_maxrss)
  std::uint64_t current_rss_bytes = 0;  // resident set right now
  std::uint64_t arena_buffers_allocated = 0;
  std::uint64_t arena_buffers_live = 0;
  std::uint64_t arena_total_makes = 0;
  std::uint64_t arena_reuses = 0;
};

/// Reads the process counters. Peak RSS comes from getrusage (ru_maxrss,
/// reported in KiB on Linux); current RSS from /proc/self/statm. On
/// platforms without either, the fields stay 0 — callers and the JSON
/// schema treat 0 as "unavailable", never as "free".
inline MemorySample SampleMemory() {
  MemorySample sample;
#if defined(__linux__) || defined(__APPLE__)
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
    sample.peak_rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    sample.peak_rss_bytes =
        static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
  }
#endif
#if defined(__linux__)
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages_total = 0;
  std::uint64_t pages_resident = 0;
  if (statm >> pages_total >> pages_resident) {
    const long page = ::sysconf(_SC_PAGESIZE);
    if (page > 0) {
      sample.current_rss_bytes =
          pages_resident * static_cast<std::uint64_t>(page);
    }
  }
#endif
  return sample;
}

/// Same, but also captures `arena`'s accounting counters (one arena ==
/// one simulation replica; sample before the Simulator is destroyed).
inline MemorySample SampleMemory(const netsim::PacketArena& arena) {
  MemorySample sample = SampleMemory();
  sample.arena_buffers_allocated = arena.buffers_allocated();
  sample.arena_buffers_live = arena.buffers_live();
  sample.arena_total_makes = arena.total_makes();
  sample.arena_reuses = arena.reuses();
  return sample;
}

/// Emits one labelled point per memory counter into `report` under the
/// series "memory.<counter>". Call once per sweep row (label = the row
/// key); repeated calls append to the same six series.
inline void ReportMemory(JsonReporter& report, const std::string& label,
                         const MemorySample& sample) {
  report.SeriesNamed("memory.peak_rss_bytes", "bytes")
      .Add(label, sample.peak_rss_bytes);
  report.SeriesNamed("memory.current_rss_bytes", "bytes")
      .Add(label, sample.current_rss_bytes);
  report.SeriesNamed("memory.arena_buffers_allocated", "buffers")
      .Add(label, sample.arena_buffers_allocated);
  report.SeriesNamed("memory.arena_buffers_live", "buffers")
      .Add(label, sample.arena_buffers_live);
  report.SeriesNamed("memory.arena_total_makes", "packets")
      .Add(label, sample.arena_total_makes);
  report.SeriesNamed("memory.arena_reuses", "packets")
      .Add(label, sample.arena_reuses);
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Exit code of a run whose requested report could not be written.
inline constexpr int kWriteFailed = 4;

/// The `seed` of each spec, in order: per-replica seeds for
/// Harness::Sweep.
template <typename Specs>
std::vector<std::uint64_t> SeedsOf(const Specs& specs) {
  std::vector<std::uint64_t> seeds;
  for (const auto& spec : specs) seeds.push_back(spec.seed);
  return seeds;
}

/// What every bench main shares, built from the parsed Options before
/// any Simulator exists:
///  * with --trace, the process-default TraceBuffer that every Simulator
///    picks up at construction, plus each replica's ring, adopted in
///    reduce order; Finish exports them as one process lane per replica
///    (pid 2, 3, ... in replica order; pid 1 is the main thread), so the
///    trace is deterministic for every --jobs N;
///  * the --jobs replica pool and the exec report: per-replica and
///    per-sweep wall-clock, written to --exec-json. It is deliberately a
///    separate file from the bench's own report: wall-clock is the one
///    thing that legitimately varies across --jobs values;
///  * the bench's own JSON report, written to --json;
///  * under --check, the expectation report merged over the replicas.
/// Status lines go to stderr, so stdout stays byte-identical whether or
/// not tracing and reports are on.
class Harness {
 public:
  explicit Harness(const Options& opts)
      : opts_(opts), pool_(opts.jobs), report_(opts.bench_name()) {
    if (opts.trace_path.empty()) return;
    trace_ = std::make_unique<obs::TraceBuffer>(std::size_t{1} << 18,
                                                obs::TraceLevel::kVerbose);
    obs::SetProcessTraceBuffer(trace_.get());
  }
  ~Harness() {
    if (trace_ != nullptr) obs::SetProcessTraceBuffer(nullptr);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// The bench's report; Finish writes it when --json names a file.
  JsonReporter& report() { return report_; }

  /// Runs `job(ctx)` for `count` replicas on the pool and feeds the
  /// results to `reduce(ctx, result)` in replica order (exec::RunSweep),
  /// adopting each replica's trace ring and recording the sweep's
  /// wall-clock under `name`. Replica i's seed is seeds[i] when given,
  /// else --seed + i. Under --check without --trace, each replica gets a
  /// span-level ring for the expectation suite that is not exported.
  template <typename Job, typename Reduce>
  void Sweep(const std::string& name, std::size_t count, Job&& job,
             Reduce&& reduce, std::vector<std::uint64_t> seeds = {}) {
    exec::SweepOptions options;
    options.base_seed = opts_.seed;
    options.seeds = std::move(seeds);
    options.trace = trace_ != nullptr || opts_.check;
    if (trace_ == nullptr) options.trace_level = obs::TraceLevel::kSpans;
    const exec::SweepTiming timing = exec::RunSweep(
        pool_, count, options, std::forward<Job>(job),
        [&](exec::RunContext& ctx, auto result) {
          reduce(ctx, std::move(result));
          if (trace_ != nullptr) lanes_.push_back(std::move(ctx.trace));
        });
    sweeps_.push_back({name, timing});
  }

  /// The --repeat loop, as the sweep "repeat": `body(ctx)` runs once per
  /// replica and returns its exit code; Repeat returns the largest.
  template <typename Body>
  int Repeat(Body&& body) {
    int rc = 0;
    Sweep("repeat", static_cast<std::size_t>(opts_.repeat),
          std::forward<Body>(body),
          [&rc](exec::RunContext&, int code) { rc = std::max(rc, code); });
    return rc;
  }

  /// --check: replays the calling replica's trace ring through the CBT
  /// expectation suite. Call at the end of a replica body, where the
  /// simulator (address resolver, end-of-run time) and the run's exact
  /// config (deadlines) are in scope. Empty when --check is off or the
  /// replica has no ring.
  std::optional<check::CheckReport> CheckReplica(
      const netsim::Simulator& sim, const core::CbtConfig& config) const {
    if (!opts_.check) return std::nullopt;
    obs::TraceBuffer* ring = obs::ProcessTraceBuffer();
    if (ring == nullptr) return std::nullopt;
    check::CbtSuiteOptions suite_options;
    suite_options.config = config;
    suite_options.node_of = check::MakeAddressResolver(sim);
    return check::RunExpectations(check::TraceView(*ring),
                                  check::CbtExpectationSuite(suite_options),
                                  sim.Now());
  }

  /// Merges one replica's CheckReplica result into the bench's check
  /// report. Call from a sweep's reduce, so replicas merge in order.
  void MergeCheck(const std::optional<check::CheckReport>& replica) {
    if (replica) check_.Merge(*replica);
  }

  /// Adds the "check" param to the report. Under --check it also prints
  /// the merged expectation report after a blank line, writes it to
  /// `json_path` when one is given, and adds its counts as check_*
  /// params; Finish then returns 1 on any violation.
  void ReportCheck(const std::string& json_path = {}) {
    report_.Param("check", opts_.check);
    if (!opts_.check) return;
    std::cout << "\n";
    check_.Print(std::cout);
    if (!json_path.empty()) {
      Write(json_path, [this](std::ostream& os) { check_.WriteJson(os); });
    }
    report_.Param("check_checked", check_.checked());
    report_.Param("check_violations", check_.violations());
    report_.Param("check_truncations", check_.truncations());
    report_.Param("check_waived", check_.waived());
  }

  /// Writes `path` through `write` and reports it on stderr. A file that
  /// cannot be written makes Finish return kWriteFailed.
  bool Write(const std::string& path,
             const std::function<void(std::ostream&)>& write) {
    std::ofstream os(path);
    if (os) {
      write(os);
      os.close();
    }
    if (!os) {
      std::cerr << "bench_" << opts_.bench_name() << ": cannot write " << path
                << "\n";
      write_failed_ = true;
      return false;
    }
    std::cerr << "wrote " << path << "\n";
    return true;
  }

  /// Writes the JSON report (--json), the exec report (--exec-json, once
  /// a sweep ran) and the trace (--trace), and returns the bench's exit
  /// code: `rc`; else 1 if --check found a violation; else kWriteFailed
  /// if a file could not be written.
  int Finish(int rc) {
    if (rc == 0 && opts_.check && !check_.clean()) rc = 1;
    if (!opts_.json_path.empty()) {
      Write(opts_.json_path, [this](std::ostream& os) { report_.Write(os); });
    }
    if (!opts_.exec_json_path.empty() && !sweeps_.empty()) {
      const JsonReporter exec = ExecReport();
      Write(opts_.exec_json_path,
            [&exec](std::ostream& os) { exec.Write(os); });
    }
    if (trace_ != nullptr) WriteTrace();
    return rc == 0 && write_failed_ ? kWriteFailed : rc;
  }

 private:
  struct SweepRecord {
    std::string name;
    exec::SweepTiming timing;
  };

  JsonReporter ExecReport() const {
    JsonReporter report("exec");
    report.Param("source_bench", opts_.bench_name());
    report.Param("jobs", sweeps_.front().timing.jobs);
    report.Param("hardware_concurrency", exec::Pool::HardwareConcurrency());
    auto& replica = report.AddSeries("replica_wall_seconds", "s");
    auto& sweeps = report.AddSeries("sweep_wall_seconds", "s");
    double total_wall = 0;
    double total_replica = 0;
    std::size_t replicas = 0;
    for (const SweepRecord& sweep : sweeps_) {
      const exec::SweepTiming& timing = sweep.timing;
      for (std::size_t i = 0; i < timing.replica_seconds.size(); ++i) {
        replica.Add(sweep.name + "/r" + std::to_string(i),
                    timing.replica_seconds[i]);
        total_replica += timing.replica_seconds[i];
        ++replicas;
      }
      sweeps.Add(sweep.name, timing.wall_seconds);
      total_wall += timing.wall_seconds;
    }
    auto& aggregate = report.AddSeries("aggregate", "s");
    aggregate.Add("total_wall_seconds", total_wall);
    aggregate.Add("total_replica_seconds", total_replica);
    aggregate.Add("replica_count", static_cast<std::uint64_t>(replicas));
    return report;
  }

  void WriteTrace() {
    std::vector<const obs::TraceBuffer*> lanes = {trace_.get()};
    std::size_t events = trace_->size();
    std::size_t dropped = trace_->dropped();
    for (const auto& ring : lanes_) {
      lanes.push_back(ring.get());
      events += ring->size();
      dropped += ring->dropped();
    }
    const bool wrote = Write(opts_.trace_path, [&](std::ostream& os) {
      if (lanes_.empty()) {
        trace_->ExportChromeTrace(os);
      } else {
        obs::ExportCombinedChromeTrace(os, lanes);
      }
    });
    if (wrote) {
      std::cerr << "trace: " << events << " events retained, " << dropped
                << " dropped\n";
    }
  }

  const Options& opts_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::vector<std::unique_ptr<obs::TraceBuffer>> lanes_;
  exec::Pool pool_;
  std::vector<SweepRecord> sweeps_;
  JsonReporter report_;
  check::CheckReport check_;
  bool write_failed_ = false;
};

}  // namespace cbt::bench
