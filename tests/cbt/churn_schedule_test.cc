#include "cbt/churn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "netsim/simulator.h"

namespace cbt::scenario {
namespace {

ChurnParams BaseParams() {
  ChurnParams params;
  params.groups = 4;
  params.zipf_s = 1.0;
  params.initial_members = 200;
  params.arrivals_per_second = 5.0;
  params.mean_holding = 30 * kSecond;
  params.duration = 120 * kSecond;
  return params;
}

TEST(ZipfSampler, SkewsTowardLowRanks) {
  ZipfSampler zipf(8, 1.0);
  Rng rng(7);
  std::map<std::uint32_t, int> histogram;
  for (int i = 0; i < 20000; ++i) ++histogram[zipf.Sample(rng)];
  // Rank 0 must dominate rank 7 decisively under s = 1.
  EXPECT_GT(histogram[0], 4 * histogram[7]);
  // Every rank is reachable.
  for (std::uint32_t g = 0; g < 8; ++g) EXPECT_GT(histogram[g], 0);
}

TEST(ZipfSampler, ZeroExponentIsRoughlyUniform) {
  ZipfSampler zipf(4, 0.0);
  Rng rng(11);
  std::map<std::uint32_t, int> histogram;
  for (int i = 0; i < 40000; ++i) ++histogram[zipf.Sample(rng)];
  for (std::uint32_t g = 0; g < 4; ++g) {
    EXPECT_GT(histogram[g], 8000);
    EXPECT_LT(histogram[g], 12000);
  }
}

TEST(ChurnSchedule, DeterministicForSeedAndParams) {
  const ChurnSchedule a = ChurnSchedule::Generate(BaseParams(), 8, 42);
  const ChurnSchedule b = ChurnSchedule::Generate(BaseParams(), 8, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].lan, b.events()[i].lan);
    EXPECT_EQ(a.events()[i].group, b.events()[i].group);
    EXPECT_EQ(a.events()[i].join, b.events()[i].join);
  }
  const ChurnSchedule c = ChurnSchedule::Generate(BaseParams(), 8, 43);
  EXPECT_NE(a.events().size(), 0u);
  // A different seed rearranges the schedule (sizes may coincide, the
  // event streams must not).
  bool differs = a.events().size() != c.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].at != c.events()[i].at ||
              a.events()[i].lan != c.events()[i].lan;
  }
  EXPECT_TRUE(differs);
}

TEST(ChurnSchedule, EventsSortedAndCountsConsistent) {
  const ChurnSchedule schedule = ChurnSchedule::Generate(BaseParams(), 8, 1);
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  SimTime last = 0;
  for (const MembershipEvent& e : schedule.events()) {
    EXPECT_GE(e.at, last);
    last = e.at;
    EXPECT_LT(e.lan, 8u);
    EXPECT_LT(e.group, 4u);
    (e.join ? joins : leaves) += 1;
  }
  EXPECT_EQ(joins, schedule.join_count());
  EXPECT_EQ(leaves, schedule.leave_count());
  // Warm start + Poisson arrivals all materialize as joins.
  EXPECT_GE(joins, BaseParams().initial_members);
  // Holding times (mean 30 s) are far shorter than the 120 s horizon, so
  // most members depart inside it.
  EXPECT_GT(leaves, joins / 2);
  EXPECT_GE(schedule.peak_members(), BaseParams().initial_members);
}

TEST(ChurnSchedule, PerLanGroupMembershipNeverGoesNegative) {
  const ChurnSchedule schedule = ChurnSchedule::Generate(BaseParams(), 5, 9);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> count;
  for (const MembershipEvent& e : schedule.events()) {
    auto& c = count[{e.lan, e.group}];
    c += e.join ? 1 : -1;
    ASSERT_GE(c, 0) << "leave before matching join at t=" << e.at;
  }
}

TEST(ChurnSchedule, FlashCrowdInjectsJoinsInsideWindow) {
  ChurnParams params = BaseParams();
  params.arrivals_per_second = 0.0;
  params.initial_members = 10;
  FlashCrowd flash;
  flash.at = 60 * kSecond;
  flash.group = 3;
  flash.members = 500;
  flash.window = 5 * kSecond;
  params.flashes.push_back(flash);
  const ChurnSchedule schedule = ChurnSchedule::Generate(params, 4, 2);
  std::uint64_t in_window = 0;
  for (const MembershipEvent& e : schedule.events()) {
    if (e.join && e.group == 3 && e.at >= flash.at &&
        e.at <= flash.at + flash.window) {
      ++in_window;
    }
  }
  EXPECT_GE(in_window, flash.members);
}

TEST(ChurnSchedule, LeaveStormDrainsTheTargetGroup) {
  ChurnParams params = BaseParams();
  params.arrivals_per_second = 0.0;
  params.initial_members = 400;
  params.mean_holding = 1000 * kSecond;  // natural departures are rare
  LeaveStorm storm;
  storm.at = 60 * kSecond;
  storm.group = 0;
  storm.fraction = 1.0;
  storm.window = 5 * kSecond;
  params.storms.push_back(storm);
  const ChurnSchedule schedule = ChurnSchedule::Generate(params, 4, 3);

  // Replay group 0's membership around the storm window.
  std::int64_t live = 0;
  std::int64_t live_at_storm = -1;
  std::uint64_t leaves_in_window = 0;
  for (const MembershipEvent& e : schedule.events()) {
    if (e.group != 0) continue;
    if (live_at_storm < 0 && e.at >= storm.at) live_at_storm = live;
    live += e.join ? 1 : -1;
    if (!e.join && e.at >= storm.at && e.at <= storm.at + storm.window) {
      ++leaves_in_window;
    }
    if (e.at > storm.at + storm.window) break;
  }
  // The zipf-hottest group holds a solid share of 400 warm-start members.
  ASSERT_GT(live_at_storm, 50);
  // fraction = 1.0: everyone present at storm.at departs inside the
  // window, and nothing is left once it closes.
  EXPECT_GE(leaves_in_window, static_cast<std::uint64_t>(live_at_storm));
  EXPECT_EQ(live, 0);
}

/// The generator as it was before it emitted events in order: the same
/// draws, then every record expanded into a join and (inside the horizon)
/// a leave, stable-sorted by time with joins first at equal times.
std::vector<MembershipEvent> ExpandAndStableSort(const ChurnParams& params,
                                                 std::uint32_t lan_count,
                                                 std::uint64_t seed) {
  struct Record {
    SimTime join_at = 0;
    SimTime leave_at = 0;
    std::uint32_t lan = 0;
    std::uint32_t group = 0;
  };
  const auto exponential = [](Rng& rng, SimDuration mean) {
    const double u = rng.NextDouble();
    return static_cast<SimDuration>(-static_cast<double>(mean) *
                                    std::log(1.0 - u));
  };
  Rng rng(seed);
  const ZipfSampler zipf(params.groups, params.zipf_s);
  std::vector<Record> records;
  const auto draw_member = [&](SimTime join_at) {
    Record r;
    r.join_at = join_at;
    r.leave_at = join_at + std::max<SimDuration>(
                               0, exponential(rng, params.mean_holding));
    r.group = zipf.Sample(rng);
    r.lan = static_cast<std::uint32_t>(rng.NextBelow(lan_count));
    records.push_back(r);
  };
  for (std::uint64_t i = 0; i < params.initial_members; ++i) draw_member(0);
  if (params.arrivals_per_second > 0) {
    const auto mean_gap = static_cast<SimDuration>(
        static_cast<double>(kSecond) / params.arrivals_per_second);
    SimTime t = exponential(rng, mean_gap);
    while (t < params.duration) {
      draw_member(t);
      t += std::max<SimDuration>(1, exponential(rng, mean_gap));
    }
  }
  for (const FlashCrowd& flash : params.flashes) {
    for (std::uint64_t i = 0; i < flash.members; ++i) {
      Record r;
      r.join_at = flash.at + static_cast<SimDuration>(rng.NextBelow(
                                 static_cast<std::uint64_t>(flash.window) + 1));
      r.leave_at = r.join_at + std::max<SimDuration>(
                                   0, exponential(rng, params.mean_holding));
      r.group = flash.group % params.groups;
      r.lan = static_cast<std::uint32_t>(rng.NextBelow(lan_count));
      records.push_back(r);
    }
  }
  for (const LeaveStorm& storm : params.storms) {
    const std::uint32_t group = storm.group % params.groups;
    for (Record& r : records) {
      if (r.group != group) continue;
      if (r.join_at > storm.at || r.leave_at <= storm.at) continue;
      if (!rng.NextBool(storm.fraction)) continue;
      r.leave_at = storm.at + static_cast<SimDuration>(rng.NextBelow(
                                  static_cast<std::uint64_t>(storm.window) + 1));
    }
  }
  std::vector<MembershipEvent> events;
  for (const Record& r : records) {
    const auto group = static_cast<std::uint16_t>(r.group);
    events.push_back({r.join_at, r.lan, group, true});
    if (r.leave_at < params.duration) {
      events.push_back({r.leave_at, r.lan, group, false});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.join && !b.join;
                   });
  return events;
}

TEST(ChurnSchedule, MergedEmissionMatchesExpandAndStableSort) {
  // bench_churn_scale's profiles at a small scale: zipf churn alone, plus
  // a flash crowd into the coldest group, plus a leave storm in the
  // hottest; two flashes overlap so flash joins interleave.
  ChurnParams smoke;
  smoke.groups = 8;
  smoke.initial_members = 3000;
  smoke.arrivals_per_second = 3000.0 / 60.0;
  smoke.mean_holding = 60 * kSecond;
  smoke.duration = 120 * kSecond;
  ChurnParams flash = smoke;
  flash.flashes.push_back({60 * kSecond, 7, 750, 5 * kSecond});
  flash.flashes.push_back({62 * kSecond, 3, 200, 2 * kSecond});
  ChurnParams storm = smoke;
  storm.storms.push_back({60 * kSecond, 0, 0.5, 5 * kSecond});
  // Both inside one 100 us window of one group: many flash joins share a
  // microsecond with each other and with storm leaves.
  ChurnParams collide = smoke;
  collide.flashes.push_back({60 * kSecond, 0, 500, 100});
  collide.storms.push_back({60 * kSecond, 0, 0.5, 100});
  const std::pair<const char*, const ChurnParams*> profiles[] = {
      {"smoke", &smoke}, {"flash", &flash}, {"storm", &storm},
      {"collide", &collide}};
  // 64 LANs take NextBelow's power-of-two mask, 48 its rejection loop.
  for (const std::uint32_t lans : {64u, 48u}) {
    for (const auto& [name, params] : profiles) {
      for (const std::uint64_t seed : {1u, 2u, 3u, 99u}) {
        SCOPED_TRACE(testing::Message()
                     << name << " seed " << seed << " lans " << lans);
        const std::vector<MembershipEvent> want =
            ExpandAndStableSort(*params, lans, seed);
        const ChurnSchedule got = ChurnSchedule::Generate(*params, lans, seed);
        ASSERT_EQ(got.events().size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          const MembershipEvent& g = got.events()[i];
          const MembershipEvent& w = want[i];
          ASSERT_TRUE(g.at == w.at && g.lan == w.lan && g.group == w.group &&
                      g.join == w.join)
              << "event " << i;
        }
      }
    }
  }
}

TEST(ChurnRunner, AppliesEveryEventAtItsTimestamp) {
  ChurnParams params = BaseParams();
  params.initial_members = 50;
  params.arrivals_per_second = 2.0;
  const ChurnSchedule schedule = ChurnSchedule::Generate(params, 3, 4);
  ASSERT_FALSE(schedule.events().empty());

  netsim::Simulator sim(1);
  std::vector<std::pair<SimTime, bool>> applied;
  ChurnRunner runner(sim, schedule, [&](const MembershipEvent& e) {
    applied.emplace_back(sim.Now(), e.join);
  });
  runner.Start();
  sim.RunUntil(params.duration + kSecond);

  ASSERT_TRUE(runner.done());
  ASSERT_EQ(applied.size(), schedule.events().size());
  for (std::size_t i = 0; i < applied.size(); ++i) {
    EXPECT_EQ(applied[i].first, schedule.events()[i].at);
    EXPECT_EQ(applied[i].second, schedule.events()[i].join);
  }
}

}  // namespace
}  // namespace cbt::scenario
