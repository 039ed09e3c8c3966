// Unit tests for the deterministic trace layer: ring wrap + dropped
// accounting, level gating, Chrome trace_event export goldens,
// and the determinism contract — a simulation traced at the most verbose
// level must leave protocol outcomes identical to an untraced run.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cbt/domain.h"
#include "netsim/topologies.h"
#include "obs/metrics.h"

namespace cbt::obs {
namespace {

TraceEvent Marker(SimTime t, const char* name) {
  return TraceEvent{.time = t, .kind = TraceKind::kMarker, .name = name};
}

TEST(TraceBuffer, RecordsAndCounts) {
  TraceBuffer buffer(8, TraceLevel::kVerbose);
  buffer.Emit(Marker(1, "a"));
  buffer.Emit(Marker(2, "b"));
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.emitted(), 2u);
  EXPECT_EQ(buffer.dropped(), 0u);

  std::vector<std::string> names;
  buffer.ForEach([&](std::uint64_t, const TraceEvent& e) {
    names.push_back(e.name);
  });
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

TEST(TraceBuffer, RingWrapKeepsNewestAndCountsDropped) {
  TraceBuffer buffer(4, TraceLevel::kVerbose);
  for (int i = 0; i < 10; ++i) {
    buffer.Emit(Marker(i, "e"));
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.emitted(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);

  // The retained window is the newest 4 events with contiguous seqs.
  std::vector<std::uint64_t> seqs;
  std::vector<SimTime> times;
  buffer.ForEach([&](std::uint64_t seq, const TraceEvent& e) {
    seqs.push_back(seq);
    times.push_back(e.time);
  });
  ASSERT_EQ(seqs.size(), 4u);
  EXPECT_EQ(seqs.front(), 6u);
  EXPECT_EQ(seqs.back(), 9u);
  EXPECT_EQ(times.front(), 6);
  EXPECT_EQ(times.back(), 9);
}

TEST(TraceBuffer, LevelGating) {
  TraceBuffer spans(16, TraceLevel::kSpans);
  EXPECT_TRUE(spans.enabled(TraceLevel::kSpans));
  EXPECT_FALSE(spans.enabled(TraceLevel::kVerbose));

  TraceBuffer off(16, TraceLevel::kOff);
  EXPECT_FALSE(off.enabled(TraceLevel::kSpans));

  // The macros apply the gate: a verbose event must not land in a
  // spans-level buffer, and a null buffer is a no-op.
  OBS_TRACE_VERBOSE(&spans, .time = 1, .name = "verbose-only");
  EXPECT_EQ(spans.size(), 0u);
  OBS_TRACE(&spans, .time = 2, .name = "span");
  EXPECT_EQ(spans.size(), 1u);
  TraceBuffer* null_buffer = nullptr;
  OBS_TRACE(null_buffer, .time = 3, .name = "dropped");
}

TEST(TraceBuffer, ClearResetsRetainedNotHistory) {
  TraceBuffer buffer(4, TraceLevel::kSpans);
  buffer.Emit(Marker(1, "x"));
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(TraceExport, OverflowAccountingInExports) {
  // 10 events into a 4-slot ring: the export must say so, so a consumer
  // can distinguish "no event" from "event evicted".
  TraceBuffer buffer(4, TraceLevel::kVerbose);
  for (int i = 0; i < 10; ++i) {
    buffer.Emit(Marker(i, "e"));
  }
  std::ostringstream chrome;
  buffer.ExportChromeTrace(chrome, /*pid=*/2);
  const std::string json = chrome.str();
  const std::size_t other = json.find("\"otherData\"");
  ASSERT_NE(other, std::string::npos) << json;
  const std::string meta = json.substr(other);
  EXPECT_NE(meta.find("\"pid\":2,"), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"emitted\":10"), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"retained\":4"), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"dropped\":6"), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"first_seq\":6"), std::string::npos) << meta;
  // Only the retained tail is exported, numbered from first_seq.
  EXPECT_EQ(json.find("\"seq\":5,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seq\":6,"), std::string::npos) << json;
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExport, ChromeTraceGolden) {
  TraceBuffer buffer(8, TraceLevel::kVerbose);
  buffer.Emit(TraceEvent{.time = 2000,
                         .kind = TraceKind::kFsm,
                         .phase = TracePhase::kBegin,
                         .name = "join",
                         .node = 5,
                         .group = Ipv4Address(239, 1, 2, 3),
                         .arg_a = 7,
                         .arg_b = 1,
                         .txn = 42,
                         .detail = "test"});
  buffer.Emit(TraceEvent{.time = 9000,
                         .kind = TraceKind::kFsm,
                         .phase = TracePhase::kEnd,
                         .name = "join",
                         .node = 5});
  std::ostringstream os;
  buffer.ExportChromeTrace(os, /*pid=*/1);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":5"), std::string::npos) << json;
  // The begin event carries every optional field in its args, in a
  // stable order; the end event sets none of them.
  EXPECT_NE(json.find("{\"name\":\"join\",\"cat\":\"fsm\",\"ph\":\"B\","
                      "\"ts\":2000,\"pid\":1,\"tid\":5,\"args\":{\"seq\":0,"
                      "\"group\":\"239.1.2.3\",\"a\":7,\"b\":1,\"txn\":42,"
                      "\"detail\":\"test\"}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ts\":9000,\"pid\":1,\"tid\":5,\"args\":{\"seq\":1,"
                      "\"a\":0,\"b\":0}}"),
            std::string::npos)
      << json;
  // Balanced braces/brackets as a cheap well-formedness proxy (the
  // trace-file rows of the golden digest table parse a real export).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ProcessTraceBuffer, PickedUpBySimulatorAtConstruction) {
  TraceBuffer buffer(1 << 10, TraceLevel::kVerbose);
  SetProcessTraceBuffer(&buffer);
  netsim::Simulator sim(1);
  SetProcessTraceBuffer(nullptr);
  EXPECT_EQ(sim.trace(), &buffer);

  netsim::Simulator untraced(1);
  EXPECT_EQ(untraced.trace(), nullptr);
}

/// The determinism contract, in-process: the same seeded join/leave +
/// fault scenario, run untraced and run at kVerbose, must produce
/// identical protocol outcomes (metric-for-metric) — tracing is
/// record-only.
MetricSet RunScenario(TraceBuffer* buffer) {
  SetProcessTraceBuffer(buffer);
  netsim::Simulator sim(7);
  SetProcessTraceBuffer(nullptr);
  netsim::Topology topo = netsim::MakeGrid(sim, 3, 3);
  core::CbtDomain domain(sim, topo);
  const Ipv4Address group(239, 8, 8, 8);
  domain.RegisterGroup(group, {topo.routers[0], topo.routers[8]});
  domain.Start();
  sim.RunUntil(kSecond);

  auto& sender = domain.AddHost(topo.router_lans[1], "s");
  auto& receiver = domain.AddHost(topo.router_lans[7], "r");
  sender.JoinGroup(group);
  receiver.JoinGroup(group);
  sim.RunUntil(10 * kSecond);
  sender.SendToGroup(group, std::vector<std::uint8_t>{1, 2, 3});
  sim.RunUntil(20 * kSecond);

  // Mid-run fault + recovery to exercise the traced FSM paths.
  sim.SetNodeUp(topo.routers[4], false);
  sim.RunUntil(120 * kSecond);
  sim.SetNodeUp(topo.routers[4], true);
  sim.RunUntil(240 * kSecond);
  sender.SendToGroup(group, std::vector<std::uint8_t>{4});
  sim.RunUntil(250 * kSecond);

  Registry registry;
  domain.BindMetrics(registry);
  return registry.Snapshot();
}

TEST(TraceDeterminism, VerboseTracingChangesNoOutcome) {
  const MetricSet untraced = RunScenario(nullptr);

  TraceBuffer buffer(1 << 14, TraceLevel::kVerbose);
  const MetricSet traced = RunScenario(&buffer);
  EXPECT_GT(buffer.emitted(), 0u);  // the run really was traced

  ASSERT_EQ(untraced.size(), traced.size());
  auto it = traced.begin();
  for (const Sample& expected : untraced) {
    EXPECT_EQ(expected.name, it->name);
    EXPECT_EQ(expected.value, it->value) << expected.name;
    ++it;
  }
}

}  // namespace
}  // namespace cbt::obs
