// The 10k-router churn row's schedule (bench_churn_scale --routers 10000
// --members 1000000, seed 1), counted: its size, its join/leave split,
// its peak membership and an FNV-1a digest of every event's fields. The
// digest pins the stream the row replays, so a faster generator must
// emit the same events in the same order. No wall clock is read.
#include <gtest/gtest.h>

#include <cstdint>

#include "cbt/churn.h"

namespace cbt::scenario {
namespace {

/// FNV-1a over (at: 8 bytes, lan: 4, group: 4, join: 1), little-endian.
std::uint64_t Fnv1a(const std::vector<MembershipEvent>& events) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const MembershipEvent& e : events) {
    mix(static_cast<std::uint64_t>(e.at), 8);
    mix(e.lan, 4);
    mix(e.group, 4);
    mix(e.join ? 1 : 0, 1);
  }
  return h;
}

TEST(ChurnScheduleScale, TenThousandRouterRowIsUnchanged) {
  // bench_churn_scale's params_for() at 1M members, churn 1.0, 120 s.
  ChurnParams params;
  params.groups = 8;
  params.zipf_s = 1.0;
  params.initial_members = 1000000;
  params.mean_holding = 60 * kSecond;
  params.duration = 120 * kSecond;
  params.arrivals_per_second = 1000000.0 / 60.0;
  const ChurnSchedule schedule = ChurnSchedule::Generate(params, 256, 1);
  EXPECT_EQ(schedule.events().size(), 5077713u);
  EXPECT_EQ(schedule.join_count(), 3049362u);
  EXPECT_EQ(schedule.leave_count(), 2028351u);
  EXPECT_EQ(schedule.peak_members(), 1021311u);
  EXPECT_EQ(Fnv1a(schedule.events()), 0x73d135c49f606153ull);
}

}  // namespace
}  // namespace cbt::scenario
