// Unit tests for the obs metrics registry: bindings across
// re-registration, snapshot/diff/reset semantics, prefix/suffix queries
// and name order, and the stats-struct binding path.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include "cbt/stats.h"
#include "obs/fields.h"

namespace cbt::obs {
namespace {

TEST(Registry, CounterRoundTrip) {
  Registry registry;
  std::uint64_t joins = 0;
  registry.RegisterExternal("cbt.router.1.joins_originated", &joins);
  joins += 5;
  EXPECT_TRUE(registry.Contains("cbt.router.1.joins_originated"));
  EXPECT_FALSE(registry.Contains("cbt.router.1"));
  EXPECT_EQ(registry.Snapshot().ValueOr("cbt.router.1.joins_originated", 0),
            5u);
}

TEST(Registry, ReRegistrationReturnsSameSlot) {
  Registry registry;
  std::uint64_t field = 3;
  registry.RegisterExternal("x.count", &field);
  registry.RegisterExternal("x.count", &field);
  field += 2;
  // One name, one entry: the second registration adds nothing.
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Snapshot().size(), 1u);
  EXPECT_EQ(registry.Snapshot().ValueOr("x.count", 0), 5u);
}

TEST(Registry, HandlesSurviveManyRegistrations) {
  // Growing the registry must not lose or move earlier bindings.
  Registry registry;
  std::uint64_t early = 1;
  registry.RegisterExternal("early", &early);
  std::vector<std::uint64_t> filler(1000, 0);
  for (std::size_t i = 0; i < filler.size(); ++i) {
    registry.RegisterExternal("filler." + std::to_string(i), &filler[i]);
  }
  ++early;
  EXPECT_EQ(registry.size(), 1001u);
  EXPECT_EQ(registry.Snapshot().ValueOr("early", 0), 2u);
}

TEST(Registry, ExternalFieldIsMirroredLive) {
  Registry registry;
  std::uint64_t field = 0;
  registry.RegisterExternal("ext.value", &field);
  field = 42;  // owner keeps writing its plain field
  EXPECT_EQ(registry.Snapshot().ValueOr("ext.value", 0), 42u);

  // Re-registration rebinds to a new address (sequential bench runs).
  std::uint64_t replacement = 7;
  registry.RegisterExternal("ext.value", &replacement);
  EXPECT_EQ(registry.Snapshot().ValueOr("ext.value", 0), 7u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, ResetZeroesOwnedAndExternal) {
  Registry registry;
  std::uint64_t a = 9;
  std::uint64_t b = 13;
  registry.RegisterExternal("a", &a);
  registry.RegisterExternal("b", &b);

  registry.Reset();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 0u);
  const MetricSet snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.ValueOr("a", 99), 0u);
  EXPECT_EQ(snapshot.ValueOr("b", 99), 0u);
  EXPECT_EQ(registry.size(), 2u);  // bindings survive a reset
}

TEST(MetricSet, SnapshotDiffWindow) {
  Registry registry;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  registry.RegisterExternal("a", &a);
  registry.RegisterExternal("b", &b);
  a += 10;
  const MetricSet before = registry.Snapshot();
  a += 5;
  b += 2;
  const MetricSet delta = registry.Snapshot().Diff(before);
  EXPECT_EQ(delta.ValueOr("a", 99), 5u);
  EXPECT_EQ(delta.ValueOr("b", 99), 2u);
}

TEST(MetricSet, PrefixAndSuffixQueries) {
  Registry registry;
  std::uint64_t joins1 = 3;
  std::uint64_t joins2 = 4;
  std::uint64_t frames = 9;
  registry.RegisterExternal("cbt.router.1.joins_originated", &joins1);
  registry.RegisterExternal("cbt.router.2.joins_originated", &joins2);
  registry.RegisterExternal("netsim.subnet.0.frames_sent", &frames);
  const MetricSet set = registry.Snapshot();
  EXPECT_EQ(set.WithPrefix("cbt.router.").size(), 2u);
  EXPECT_EQ(set.SumWithSuffix(".joins_originated"), 7u);
  EXPECT_FALSE(set.Get("missing").has_value());
}

TEST(MetricSet, SnapshotIsNameSorted) {
  MetricSet set(std::vector<Sample>{{"zebra", 1}, {"apple", 2}, {"mid", 3}});
  std::string previous;
  for (const Sample& sample : set) {
    EXPECT_LE(previous, sample.name);
    previous = sample.name;
  }
  // A registry snapshot is name-sorted whatever the registration order.
  Registry registry;
  std::uint64_t z = 1;
  std::uint64_t a = 2;
  std::uint64_t m = 3;
  registry.RegisterExternal("zebra", &z);
  registry.RegisterExternal("apple", &a);
  registry.RegisterExternal("mid", &m);
  std::vector<std::string> names;
  for (const Sample& sample : registry.Snapshot()) names.push_back(sample.name);
  EXPECT_EQ(names, (std::vector<std::string>{"apple", "mid", "zebra"}));
}

TEST(BindStats, RouterStatsFieldsAppearAndSum) {
  Registry registry;
  core::RouterStats stats;
  BindStats(registry, "cbt.router.7", stats);
  stats.joins_originated = 2;
  stats.acks_sent = 3;
  stats.data_forwarded_tree = 11;  // not a control message

  const MetricSet snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.ValueOr("cbt.router.7.joins_originated", 0), 2u);
  EXPECT_EQ(snapshot.ValueOr("cbt.router.7.acks_sent", 0), 3u);
  // The tagged rollup matches the struct's own accessor.
  EXPECT_EQ(stats.ControlMessagesSent(), 5u);
  EXPECT_EQ(SumTagged(stats, FieldTag::kControlSent), 5u);
}

TEST(BindStats, ResetStatsZeroesEveryEnumeratedField) {
  core::RouterStats stats;
  stats.joins_originated = 1;
  stats.malformed_control = 2;
  stats.data_delivered_lan = 3;
  stats.Reset();
  EXPECT_EQ(stats.joins_originated, 0u);
  EXPECT_EQ(stats.malformed_control, 0u);
  EXPECT_EQ(stats.data_delivered_lan, 0u);
  EXPECT_EQ(stats.ControlMessagesSent(), 0u);
}

TEST(BindStats, StatsSnapshotWithoutRegistry) {
  core::RouterStats stats;
  stats.quits_sent = 6;
  const MetricSet snapshot = StatsSnapshot(stats, "r");
  EXPECT_EQ(snapshot.ValueOr("r.quits_sent", 0), 6u);
  EXPECT_GT(snapshot.size(), 30u);  // all RouterStats fields enumerated
}

}  // namespace
}  // namespace cbt::obs
