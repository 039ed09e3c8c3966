// Experiment E9 — wire-codec microbenchmarks (google-benchmark engine,
// bench::Options dialect).
//
// The spec argues CBT-mode encapsulation is cheap ("decapsulation is
// relatively efficient", section 5); these benchmarks measure our
// implementation's per-packet costs: header encode/decode, checksum, and
// the full CBT-mode encapsulate/decapsulate round trip.
//
// The binary speaks the shared bench flag dialect (--smoke, --json,
// --filter, ...) and writes the common BENCH_codec.json schema; google-
// benchmark stays the measurement engine underneath (its console output
// is unchanged, and its native flags are reachable via --filter /
// --smoke rather than exposed raw).
#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/checksum.h"
#include "packet/encap.h"

namespace {

using namespace cbt;          // NOLINT
using namespace cbt::packet;  // NOLINT

ControlPacket MakeJoin() {
  ControlPacket pkt;
  pkt.type = ControlType::kJoinRequest;
  pkt.code = static_cast<std::uint8_t>(JoinSubcode::kActiveJoin);
  pkt.group = Ipv4Address(239, 0, 0, 7);
  pkt.origin = Ipv4Address(10, 4, 0, 1);
  pkt.target_core = Ipv4Address(10, 99, 0, 1);
  pkt.cores = {Ipv4Address(10, 99, 0, 1), Ipv4Address(10, 98, 0, 1),
               Ipv4Address(10, 97, 0, 1)};
  return pkt;
}

void BM_ControlEncode(benchmark::State& state) {
  const ControlPacket pkt = MakeJoin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt.Encode());
  }
}
BENCHMARK(BM_ControlEncode);

void BM_ControlDecode(benchmark::State& state) {
  const auto bytes = MakeJoin().Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ControlPacket::Decode(bytes));
  }
}
BENCHMARK(BM_ControlDecode);

void BM_DataHeaderEncode(benchmark::State& state) {
  CbtDataHeader hdr;
  hdr.group = Ipv4Address(239, 1, 2, 3);
  hdr.core = Ipv4Address(10, 5, 0, 1);
  hdr.origin = Ipv4Address(10, 1, 0, 100);
  hdr.ip_ttl = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdr.EncodeToBytes());
  }
}
BENCHMARK(BM_DataHeaderEncode);

void BM_DataHeaderDecode(benchmark::State& state) {
  CbtDataHeader hdr;
  hdr.group = Ipv4Address(239, 1, 2, 3);
  hdr.ip_ttl = 64;
  const auto bytes = hdr.EncodeToBytes();
  for (auto _ : state) {
    BufferReader reader(bytes);
    benchmark::DoNotOptimize(CbtDataHeader::Decode(reader));
  }
}
BENCHMARK(BM_DataHeaderDecode);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(InternetChecksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(28)->Arg(256)->Arg(1500);

void BM_CbtModeEncapsulate(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0xAB);
  const auto inner = BuildAppDatagram(Ipv4Address(10, 10, 0, 100),
                                      Ipv4Address(239, 1, 2, 3), payload);
  CbtDataHeader hdr;
  hdr.group = Ipv4Address(239, 1, 2, 3);
  hdr.core = Ipv4Address(10, 5, 0, 1);
  hdr.origin = Ipv4Address(10, 10, 0, 100);
  hdr.ip_ttl = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildCbtModeDatagram(
        Ipv4Address(10, 3, 0, 1), Ipv4Address(10, 4, 0, 1), hdr, inner));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(inner.size()));
}
BENCHMARK(BM_CbtModeEncapsulate)->Arg(64)->Arg(512)->Arg(1400);

void BM_CbtModeDecapsulate(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0xAB);
  const auto inner = BuildAppDatagram(Ipv4Address(10, 10, 0, 100),
                                      Ipv4Address(239, 1, 2, 3), payload);
  CbtDataHeader hdr;
  hdr.group = Ipv4Address(239, 1, 2, 3);
  hdr.ip_ttl = 64;
  const auto bytes = BuildCbtModeDatagram(Ipv4Address(10, 3, 0, 1),
                                          Ipv4Address(10, 4, 0, 1), hdr,
                                          inner);
  for (auto _ : state) {
    const auto parsed = ParseDatagram(bytes);
    benchmark::DoNotOptimize(ExtractCbtModeData(*parsed));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CbtModeDecapsulate)->Arg(64)->Arg(512)->Arg(1400);

void BM_TtlDecrement(benchmark::State& state) {
  const auto dgram = BuildAppDatagram(Ipv4Address(10, 10, 0, 100),
                                      Ipv4Address(239, 1, 2, 3),
                                      std::vector<std::uint8_t>(512, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(WithDecrementedTtl(dgram));
  }
}
BENCHMARK(BM_TtlDecrement);

void BM_TtlRewriteInPlace(benchmark::State& state) {
  // The transit-hop rewrite: TTL and header checksum patched in the
  // buffer itself (RFC 1624), no copy. The TTL counts down through all
  // 256 values, so every iteration changes the checksum.
  auto dgram = BuildAppDatagram(Ipv4Address(10, 10, 0, 100),
                                Ipv4Address(239, 1, 2, 3),
                                std::vector<std::uint8_t>(512, 1));
  for (auto _ : state) {
    RewriteTtl(dgram, static_cast<std::uint8_t>(dgram[8] - 1));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TtlRewriteInPlace);

void BM_ParseDatagram(benchmark::State& state) {
  // Arg is the frame size: 28 is an IGMP membership report (IP + 8-byte
  // IGMP message), anything larger a native data frame.
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> frame;
  if (size == kIpv4HeaderSize + 8) {
    IgmpMessage msg;
    msg.type = IgmpType::kMembershipReport;
    msg.group = Ipv4Address(239, 1, 2, 3);
    const auto igmp = BuildIgmpDatagram(Ipv4Address(10, 1, 0, 100),
                                        msg.group, msg);
    frame.assign(igmp.begin(), igmp.end());
  } else {
    frame = BuildAppDatagram(Ipv4Address(10, 10, 0, 100),
                             Ipv4Address(239, 1, 2, 3),
                             std::vector<std::uint8_t>(size - kIpv4HeaderSize));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseDatagram(frame));
  }
}
BENCHMARK(BM_ParseDatagram)->Arg(28)->Arg(1420);

void BM_IgmpCoreReportRoundTrip(benchmark::State& state) {
  IgmpMessage msg;
  msg.type = IgmpType::kRpCoreReport;
  msg.group = Ipv4Address(239, 1, 2, 3);
  msg.cores = {Ipv4Address(10, 99, 0, 1), Ipv4Address(10, 98, 0, 1)};
  for (auto _ : state) {
    const auto bytes = msg.Encode();
    benchmark::DoNotOptimize(IgmpMessage::Decode(bytes));
  }
}
BENCHMARK(BM_IgmpCoreReportRoundTrip);

void BM_Ipv4HeaderEncode(benchmark::State& state) {
  // The 20-byte header every simulated frame carries, checksum included.
  Ipv4Header hdr;
  hdr.protocol = IpProtocol::kIgmp;
  hdr.ttl = 1;
  hdr.src = Ipv4Address(10, 1, 0, 1);
  hdr.dst = Ipv4Address(224, 0, 0, 1);
  std::array<std::uint8_t, kIpv4HeaderSize> out{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdr);
    hdr.Encode(out, 8);
    benchmark::DoNotOptimize(out);
    ++hdr.identification;  // a new checksum every iteration
  }
}
BENCHMARK(BM_Ipv4HeaderEncode);

void BM_BuildIgmpDatagram(benchmark::State& state) {
  // Arg 0: a general query (the periodic IGMP query timer's frame);
  // arg N > 0: a core report carrying N cores.
  const auto cores = static_cast<std::size_t>(state.range(0));
  IgmpMessage msg;
  if (cores == 0) {
    msg.type = IgmpType::kMembershipQuery;
    msg.code = 100;
  } else {
    msg.type = IgmpType::kRpCoreReport;
    msg.code = kCoreReportCodeCbt;
    msg.group = Ipv4Address(239, 1, 2, 3);
    for (std::size_t i = 0; i < cores; ++i) {
      msg.cores.push_back(
          Ipv4Address(10, static_cast<std::uint8_t>(90 + i), 0, 1));
    }
  }
  const Ipv4Address dst =
      cores == 0 ? Ipv4Address(224, 0, 0, 1) : msg.group;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildIgmpDatagram(Ipv4Address(10, 1, 0, 1), dst, msg));
  }
}
BENCHMARK(BM_BuildIgmpDatagram)->Arg(0)->Arg(8);

void BM_BuildControlDatagram(benchmark::State& state) {
  // A CBT-ECHO-REQUEST: the section 6 keepalive a child sends its parent.
  ControlPacket pkt;
  pkt.type = ControlType::kEchoRequest;
  pkt.group = Ipv4Address(239, 0, 0, 7);
  pkt.origin = Ipv4Address(10, 4, 0, 1);
  pkt.target_core = Ipv4Address(10, 99, 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildControlDatagram(
        Ipv4Address(10, 4, 0, 1), Ipv4Address(10, 4, 0, 2), pkt));
  }
}
BENCHMARK(BM_BuildControlDatagram);

/// Console reporter that also keeps every per-iteration run so main()
/// can emit the shared BENCH_*.json schema after the engine finishes.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) collected.push_back(run);
    ConsoleReporter::ReportRuns(runs);
  }
  std::vector<Run> collected;
};

}  // namespace

int main(int argc, char** argv) {
  cbt::bench::Options opts("codec",
                           "E9: wire-codec microbenchmarks "
                           "(google-benchmark engine)");
  opts.json_path = "BENCH_codec.json";  // always reported
  opts.jobs = 1;  // timing microbench; google-benchmark runs serially
  std::string filter;
  opts.Str("filter", &filter, "run only benchmarks matching this regex");
  opts.Parse(argc, argv);
  cbt::bench::Harness harness(opts);

  // Re-assemble an argv for google-benchmark from the shared dialect:
  // --smoke shrinks min_time to a correctness-only pass, --filter maps
  // to --benchmark_filter.
  std::vector<std::string> engine_args = {argv[0]};
  if (opts.smoke) engine_args.push_back("--benchmark_min_time=0.01");
  if (!filter.empty()) {
    engine_args.push_back("--benchmark_filter=" + filter);
  }
  std::vector<char*> engine_argv;
  engine_argv.reserve(engine_args.size());
  for (std::string& arg : engine_args) engine_argv.push_back(arg.data());
  int engine_argc = static_cast<int>(engine_argv.size());
  benchmark::Initialize(&engine_argc, engine_argv.data());

  CollectingReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);

  auto& report = harness.report();
  report.Param("engine", "google-benchmark");
  report.Param("mode", opts.smoke ? "smoke" : "full");
  report.Param("benchmarks", static_cast<std::uint64_t>(ran));
  auto& real_series = report.AddSeries("real_time", "ns");
  auto& cpu_series = report.AddSeries("cpu_time", "ns");
  auto& iter_series = report.AddSeries("iterations", "iterations");
  auto& bytes_series = report.AddSeries("bytes_per_second", "B/s");
  for (const auto& run : reporter.collected) {
    if (run.run_type != benchmark::BenchmarkReporter::Run::RT_Iteration) {
      continue;
    }
    const std::string label = run.benchmark_name();
    real_series.Add(label, run.GetAdjustedRealTime());
    cpu_series.Add(label, run.GetAdjustedCPUTime());
    iter_series.Add(label, static_cast<std::uint64_t>(run.iterations));
    const auto bytes = run.counters.find("bytes_per_second");
    if (bytes != run.counters.end()) {
      bytes_series.Add(label, static_cast<double>(bytes->second));
    }
  }
  benchmark::Shutdown();
  return harness.Finish(0);
}
