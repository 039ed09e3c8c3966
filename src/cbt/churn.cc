#include "cbt/churn.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cbt::scenario {

ZipfSampler::ZipfSampler(std::uint32_t n, double s) {
  assert(n > 0);
  cdf_.reserve(n);
  double total = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding shortfall
}

std::uint32_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(it - cdf_.begin());
}

namespace {

/// Exponential draw with the given mean, via inverse transform. The
/// 1 - u argument keeps log() off zero (NextDouble is in [0, 1)).
SimDuration DrawExponential(Rng& rng, SimDuration mean) {
  const double u = rng.NextDouble();
  const double d = -static_cast<double>(mean) * std::log(1.0 - u);
  return static_cast<SimDuration>(d);
}

/// Records Generate draws, reserved up front so the array is never
/// copied as it grows: the warm start, every flash crowd, and the Poisson
/// arrivals' mean plus four standard deviations. A gap is
/// max(1, floor(Exp(mean_gap))), whose mean is 1 + q^2 / (1 - q) with
/// q = e^(-1 / mean_gap).
std::size_t RecordBound(const ChurnParams& params, SimDuration mean_gap) {
  std::uint64_t bound = params.initial_members + 16;
  for (const FlashCrowd& flash : params.flashes) bound += flash.members;
  if (params.arrivals_per_second > 0 && params.duration > 0) {
    const double q =
        mean_gap > 0 ? std::exp(-1.0 / static_cast<double>(mean_gap)) : 0.0;
    const double arrivals =
        static_cast<double>(params.duration) / (1 + q * q / (1 - q));
    bound += static_cast<std::uint64_t>(arrivals + 4 * std::sqrt(arrivals));
  }
  return static_cast<std::size_t>(bound);
}

struct MemberRecord {
  SimTime join_at = 0;
  SimTime leave_at = 0;
  std::uint32_t lan = 0;
  std::uint16_t group = 0;
};

/// Buckets at most this full are insertion-sorted; larger ones (the
/// clumps a narrow leave storm makes) take a merge sort.
constexpr std::ptrdiff_t kInsertionSortMax = 16;

/// Stable sort of one bucket of leaves by time.
void SortBucket(MembershipEvent* first, MembershipEvent* last) {
  if (last - first > kInsertionSortMax) {
    std::stable_sort(first, last,
                     [](const MembershipEvent& a, const MembershipEvent& b) {
                       return a.at < b.at;
                     });
    return;
  }
  for (MembershipEvent* i = first + 1; i < last; ++i) {
    const MembershipEvent e = *i;
    MembershipEvent* j = i;
    for (; j > first && e.at < (j - 1)->at; --j) *j = *(j - 1);
    *j = e;
  }
}

}  // namespace

ChurnSchedule ChurnSchedule::Generate(const ChurnParams& params,
                                      std::uint32_t lan_count,
                                      std::uint64_t seed) {
  assert(lan_count > 0);
  assert(params.groups > 0 && params.groups <= (1u << 16));
  Rng rng(seed);
  const ZipfSampler zipf(params.groups, params.zipf_s);

  std::vector<MemberRecord> records;
  const SimDuration mean_gap =
      params.arrivals_per_second > 0
          ? static_cast<SimDuration>(static_cast<double>(kSecond) /
                                     params.arrivals_per_second)
          : 0;
  records.reserve(RecordBound(params, mean_gap));

  const auto draw_member = [&](SimTime join_at) {
    MemberRecord r;
    r.join_at = join_at;
    r.leave_at = join_at + std::max<SimDuration>(
                               0, DrawExponential(rng, params.mean_holding));
    r.group = static_cast<std::uint16_t>(zipf.Sample(rng));
    r.lan = static_cast<std::uint32_t>(rng.NextBelow(lan_count));
    records.push_back(r);
  };

  // Warm start: members present at t = 0. Memorylessness makes the
  // residual holding time another exponential draw.
  for (std::uint64_t i = 0; i < params.initial_members; ++i) draw_member(0);

  // Poisson arrival process: exponential inter-arrival gaps.
  if (params.arrivals_per_second > 0) {
    SimTime t = DrawExponential(rng, mean_gap);
    while (t < params.duration) {
      draw_member(t);
      t += std::max<SimDuration>(1, DrawExponential(rng, mean_gap));
    }
  }

  // Flash crowds: a burst of joins into one group over a short window.
  const std::size_t flash_begin = records.size();
  for (const FlashCrowd& flash : params.flashes) {
    assert(flash.at >= 0);
    for (std::uint64_t i = 0; i < flash.members; ++i) {
      MemberRecord r;
      r.join_at = flash.at + static_cast<SimDuration>(rng.NextBelow(
                                 static_cast<std::uint64_t>(flash.window) + 1));
      r.leave_at = r.join_at + std::max<SimDuration>(
                                   0, DrawExponential(rng, params.mean_holding));
      r.group = static_cast<std::uint16_t>(flash.group % params.groups);
      r.lan = static_cast<std::uint32_t>(rng.NextBelow(lan_count));
      records.push_back(r);
    }
  }

  // Leave storms rewrite the departure times of members active at the
  // storm instant. Scan order (record index) keeps selection
  // deterministic.
  for (const LeaveStorm& storm : params.storms) {
    assert(storm.at >= 0);
    const std::uint32_t group = storm.group % params.groups;
    for (MemberRecord& r : records) {
      if (r.group != group) continue;
      if (r.join_at > storm.at || r.leave_at <= storm.at) continue;
      if (!rng.NextBool(storm.fraction)) continue;
      r.leave_at = storm.at + static_cast<SimDuration>(rng.NextBelow(
                                  static_cast<std::uint64_t>(storm.window) + 1));
    }
  }

  // Emit the events in time order, joins before leaves at equal times so
  // per-(lan, group) member counts never go negative (a record's leave can
  // coincide with its own join); among equal (time, kind), record index
  // order. Warm-start and Poisson joins are already in that order; flash
  // joins are sorted by (time, record index).
  using Keyed = std::pair<SimTime, std::uint32_t>;  // (time, record index)
  std::vector<Keyed> flash_joins;
  flash_joins.reserve(records.size() - flash_begin);
  for (std::size_t i = flash_begin; i < records.size(); ++i) {
    flash_joins.emplace_back(records[i].join_at, static_cast<std::uint32_t>(i));
  }
  std::sort(flash_joins.begin(), flash_joins.end());

  // Leaves go to the tail of the events array, ordered by one stable
  // bucket pass on leave time over the records: buckets are 2^shift us
  // wide, at most one per two records, so a bucket holds a leave or two
  // and ties keep record order. Every leave time lies in [0, duration).
  const std::size_t joins = records.size();
  const SimTime horizon = params.duration;
  const auto span = static_cast<std::uint64_t>(std::max<SimTime>(horizon, 1));
  const std::uint64_t max_buckets = std::max<std::uint64_t>(joins / 2, 1);
  int shift = 0;
  while (((span - 1) >> shift) >= max_buckets) ++shift;
  const auto bucket_of = [shift](SimTime at) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(at) >> shift);
  };
  const std::size_t buckets = bucket_of(static_cast<SimTime>(span - 1)) + 1;
  // bucket_start[b] counts, then ends, then (after the backward scatter)
  // starts bucket b; bucket_start[buckets] stays the leave count.
  std::vector<std::uint32_t> bucket_start(buckets + 1, 0);
  std::size_t leaves = 0;
  for (const MemberRecord& r : records) {
    if (r.leave_at >= horizon) continue;
    ++bucket_start[bucket_of(r.leave_at)];
    ++leaves;
  }
  for (std::size_t b = 1; b <= buckets; ++b) {
    bucket_start[b] += bucket_start[b - 1];
  }

  ChurnSchedule schedule;
  schedule.join_count_ = joins;
  schedule.leave_count_ = leaves;
  std::vector<MembershipEvent>& events = schedule.events_;
  events.resize(joins + leaves);
  MembershipEvent* const tail = events.data() + joins;
  for (std::size_t i = records.size(); i-- > 0;) {
    const MemberRecord& r = records[i];
    if (r.leave_at >= horizon) continue;
    tail[--bucket_start[bucket_of(r.leave_at)]] = {r.leave_at, r.lan, r.group,
                                                   false};
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    if (bucket_start[b + 1] - bucket_start[b] > 1) {
      SortBucket(tail + bucket_start[b], tail + bucket_start[b + 1]);
    }
  }

  // Merge the joins forward into the head. The write index trails the
  // leaf read index by the joins still to come, so the merge runs in
  // place; once the joins run out, the remaining leaves already sit in
  // their final slots.
  std::size_t w = 0;
  std::size_t l = joins;
  const std::size_t end = joins + leaves;
  std::uint64_t live = 0;
  std::uint32_t a = 0;  // next warm-start or Poisson record
  auto f = flash_joins.begin();
  while (a < flash_begin || f != flash_joins.end()) {
    // Arrivals precede every flash record, so they win (time, index) ties.
    std::uint32_t index;
    if (f == flash_joins.end() ||
        (a < flash_begin && records[a].join_at <= f->first)) {
      index = a++;
    } else {
      index = (f++)->second;
    }
    const MemberRecord& r = records[index];
    for (; l < end && events[l].at < r.join_at; ++l, --live) {
      events[w++] = events[l];
    }
    events[w++] = {r.join_at, r.lan, r.group, true};
    schedule.peak_members_ = std::max(schedule.peak_members_, ++live);
  }
  return schedule;
}

void ChurnRunner::Arm() {
  if (next_ >= events_->size()) return;
  sim_->ScheduleAt((*events_)[next_].at, [this] { Pump(); });
}

void ChurnRunner::Pump() {
  const SimTime now = sim_->Now();
  while (next_ < events_->size() && (*events_)[next_].at <= now) {
    apply_((*events_)[next_]);
    ++next_;
  }
  Arm();
}

}  // namespace cbt::scenario
