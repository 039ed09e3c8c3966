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
//                   JSON on exit (bench::TraceSession)
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
// All BENCH_*.json files share one schema (schema_version 1):
//
//   { "bench": "<name>", "schema_version": 1,
//     "params": { "<key>": <value>, ... },
//     "series": [ { "name": "...", "units": "...",
//                   "points": [ { "label": "...", "value": ... } ] } ] }
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/table.h"
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
  int shards = 0;
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

  /// Opt-in registration of --shards (space-parallel PDES). Benches that
  /// have not been wired for the shard runtime keep rejecting the flag
  /// through the normal unknown-flag exit-2 path.
  void EnableShards() {
    Int("shards", &shards,
        "PDES regions sharding each simulation across cores "
        "(0 = classic serial engine; N >= 1 = shard runtime, "
        "byte-identical output for every N)");
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
    if (shards > 1 && jobs > 1) {
      Fail("--shards and --jobs cannot both be > 1: a sharded simulation "
           "already fans out across the cores");
    }
    // A sharded run owns the machine's parallelism; pin the replica pool
    // to the serial path instead of letting --jobs 0 grab every core too.
    if (shards > 1 && jobs == 0) jobs = 1;
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

  /// Writes to `path`; reports to stderr so bench stdout stays
  /// byte-comparable across runs. Returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench_" << bench_ << ": cannot write " << path << "\n";
      return false;
    }
    Write(os);
    std::cerr << "wrote " << path << "\n";
    return os.good();
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
// TraceSession
// ---------------------------------------------------------------------

/// RAII tracing for bench mains. Constructed with the --trace path
/// (empty => inert) BEFORE any Simulator is built: it installs the
/// process-default TraceBuffer that every Simulator picks up at
/// construction, and on destruction exports Chrome trace_event JSON.
/// All status output goes to stderr — bench stdout must stay
/// byte-identical whether or not tracing is on.
///
/// Replica sweeps record into per-replica rings instead (the process
/// buffer is masked inside each exec::RunContext); the reducer hands
/// those rings to Adopt(), and the export merges them as one process
/// lane per replica (pid 2, 3, ... in replica order — pid 1 is the main
/// thread), so the exported trace is deterministic for every --jobs N.
class TraceSession {
 public:
  explicit TraceSession(const std::string& path,
                        obs::TraceLevel level = obs::TraceLevel::kVerbose,
                        std::size_t capacity = std::size_t{1} << 18)
      : path_(path) {
    if (path_.empty()) return;
    buffer_ = std::make_unique<obs::TraceBuffer>(capacity, level);
    obs::SetProcessTraceBuffer(buffer_.get());
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  ~TraceSession() {
    if (buffer_ == nullptr) return;
    obs::SetProcessTraceBuffer(nullptr);
    std::ofstream os(path_);
    if (!os) {
      std::cerr << "trace: cannot write " << path_ << "\n";
      return;
    }
    std::size_t events = buffer_->size();
    std::size_t dropped = buffer_->dropped();
    if (adopted_.empty()) {
      buffer_->ExportChromeTrace(os);
    } else {
      std::vector<const obs::TraceBuffer*> lanes;
      lanes.push_back(buffer_.get());
      for (const auto& ring : adopted_) {
        lanes.push_back(ring.get());
        events += ring->size();
        dropped += ring->dropped();
      }
      obs::ExportCombinedChromeTrace(os, lanes);
    }
    std::cerr << "wrote trace " << path_ << " (" << events
              << " events retained, " << dropped << " dropped)\n";
  }

  bool active() const { return buffer_ != nullptr; }
  obs::TraceBuffer* buffer() { return buffer_.get(); }

  /// Takes ownership of a replica's trace ring (call from the RunSweep
  /// reducer — reduction order is replica order, so lane numbering is
  /// deterministic). No-op when the session is inert or the replica
  /// recorded nothing.
  void Adopt(std::unique_ptr<obs::TraceBuffer> ring) {
    if (buffer_ == nullptr || ring == nullptr) return;
    adopted_.push_back(std::move(ring));
  }

 private:
  std::string path_;
  std::unique_ptr<obs::TraceBuffer> buffer_;
  std::vector<std::unique_ptr<obs::TraceBuffer>> adopted_;
};

// ---------------------------------------------------------------------
// ExecReport
// ---------------------------------------------------------------------

/// Collects exec::SweepTiming from every sweep a bench runs and writes
/// BENCH_exec.json (per-replica wall-clock, per-sweep wall-clock, and
/// aggregates). This is deliberately a SEPARATE file from the bench's
/// own BENCH_*.json: wall-clock is the one thing that legitimately
/// varies across --jobs values, and keeping it out of the bench report
/// preserves the byte-identical `--jobs 1` vs `--jobs N` contract.
class ExecReport {
 public:
  explicit ExecReport(std::string bench) : bench_(std::move(bench)) {}

  void Add(const std::string& sweep, const exec::SweepTiming& timing) {
    entries_.push_back({sweep, timing});
  }

  /// Writes to opts.exec_json_path ("" disables). Call once at the end
  /// of main, after every sweep has been Add()ed.
  void WriteIfRequested(const Options& opts) const {
    if (opts.exec_json_path.empty() || entries_.empty()) return;
    JsonReporter report("exec");
    report.Param("source_bench", bench_);
    report.Param("jobs", entries_.front().timing.jobs);
    report.Param("hardware_concurrency", exec::Pool::HardwareConcurrency());
    auto& replica = report.AddSeries("replica_wall_seconds", "s");
    auto& sweeps = report.AddSeries("sweep_wall_seconds", "s");
    double total_wall = 0;
    double total_replica = 0;
    std::size_t replicas = 0;
    for (const auto& entry : entries_) {
      for (std::size_t i = 0; i < entry.timing.replica_seconds.size(); ++i) {
        replica.Add(entry.sweep + "/r" + std::to_string(i),
                    entry.timing.replica_seconds[i]);
        total_replica += entry.timing.replica_seconds[i];
        ++replicas;
      }
      sweeps.Add(entry.sweep, entry.timing.wall_seconds);
      total_wall += entry.timing.wall_seconds;
    }
    auto& aggregate = report.AddSeries("aggregate", "s");
    aggregate.Add("total_wall_seconds", total_wall);
    aggregate.Add("total_replica_seconds", total_replica);
    aggregate.Add("replica_count", static_cast<std::uint64_t>(replicas));
    report.WriteFile(opts.exec_json_path);
  }

 private:
  struct Entry {
    std::string sweep;
    exec::SweepTiming timing;
  };
  std::string bench_;
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------
// Sweep helpers
// ---------------------------------------------------------------------

/// Sweep options derived from the shared flags: replica i gets seed
/// opts.seed + i, and per-replica trace rings iff --trace is on.
inline exec::SweepOptions MakeSweepOptions(const Options& opts,
                                           const TraceSession& trace) {
  exec::SweepOptions sweep;
  sweep.base_seed = opts.seed;
  sweep.trace = trace.active();
  return sweep;
}

/// Runs `body(ctx)` once per --repeat replica on `pool`, flushing each
/// replica's buffered output in replica order (so output order — and
/// bytes — match the legacy `for (rep)` loop exactly). `body` returns
/// the replica's exit code; RunRepeated returns the maximum. This is
/// the adoption path for single-loop benches; multi-sweep benches call
/// exec::RunSweep directly.
template <typename Body>
int RunRepeated(exec::Pool& pool, const Options& opts, TraceSession& trace,
                ExecReport& report, Body&& body) {
  int rc = 0;
  const exec::SweepTiming timing = exec::RunSweep(
      pool, static_cast<std::size_t>(opts.repeat), MakeSweepOptions(opts, trace),
      [&](exec::RunContext& ctx) { return body(ctx); },
      [&](exec::RunContext& ctx, int code) {
        if (code > rc) rc = code;
        trace.Adopt(std::move(ctx.trace));
      });
  report.Add("repeat", timing);
  return rc;
}

}  // namespace cbt::bench
