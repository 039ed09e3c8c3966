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

struct MemberRecord {
  SimTime join_at = 0;
  SimTime leave_at = 0;
  std::uint32_t lan = 0;
  std::uint32_t group = 0;
};

}  // namespace

ChurnSchedule ChurnSchedule::Generate(const ChurnParams& params,
                                      std::uint32_t lan_count,
                                      std::uint64_t seed) {
  assert(lan_count > 0);
  assert(params.groups > 0);
  Rng rng(seed);
  const ZipfSampler zipf(params.groups, params.zipf_s);

  std::vector<MemberRecord> records;
  records.reserve(params.initial_members +
                  static_cast<std::size_t>(params.arrivals_per_second *
                                           (static_cast<double>(params.duration) /
                                            kSecond)) +
                  16);

  const auto draw_member = [&](SimTime join_at) {
    MemberRecord r;
    r.join_at = join_at;
    r.leave_at = join_at + std::max<SimDuration>(
                               0, DrawExponential(rng, params.mean_holding));
    r.group = zipf.Sample(rng);
    r.lan = static_cast<std::uint32_t>(rng.NextBelow(lan_count));
    records.push_back(r);
  };

  // Warm start: members present at t = 0. Memorylessness makes the
  // residual holding time another exponential draw.
  for (std::uint64_t i = 0; i < params.initial_members; ++i) draw_member(0);

  // Poisson arrival process: exponential inter-arrival gaps.
  if (params.arrivals_per_second > 0) {
    const auto mean_gap = static_cast<SimDuration>(
        static_cast<double>(kSecond) / params.arrivals_per_second);
    SimTime t = DrawExponential(rng, mean_gap);
    while (t < params.duration) {
      draw_member(t);
      t += std::max<SimDuration>(1, DrawExponential(rng, mean_gap));
    }
  }

  // Flash crowds: a burst of joins into one group over a short window.
  const std::size_t flash_begin = records.size();
  for (const FlashCrowd& flash : params.flashes) {
    for (std::uint64_t i = 0; i < flash.members; ++i) {
      MemberRecord r;
      r.join_at = flash.at + static_cast<SimDuration>(rng.NextBelow(
                                 static_cast<std::uint64_t>(flash.window) + 1));
      r.leave_at = r.join_at + std::max<SimDuration>(
                                   0, DrawExponential(rng, params.mean_holding));
      r.group = flash.group % params.groups;
      r.lan = static_cast<std::uint32_t>(rng.NextBelow(lan_count));
      records.push_back(r);
    }
  }

  // Leave storms rewrite the departure times of members active at the
  // storm instant. Scan order (record index) keeps selection
  // deterministic.
  for (const LeaveStorm& storm : params.storms) {
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
  // joins and the leaves are sorted by (time, record index) and merged in.
  using Keyed = std::pair<SimTime, std::uint32_t>;  // (time, record index)
  std::vector<Keyed> flash_joins;
  flash_joins.reserve(records.size() - flash_begin);
  for (std::size_t i = flash_begin; i < records.size(); ++i) {
    flash_joins.emplace_back(records[i].join_at, static_cast<std::uint32_t>(i));
  }
  std::sort(flash_joins.begin(), flash_joins.end());
  std::vector<Keyed> leaves;
  leaves.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].leave_at < params.duration) {
      leaves.emplace_back(records[i].leave_at, static_cast<std::uint32_t>(i));
    }
  }
  std::sort(leaves.begin(), leaves.end());

  ChurnSchedule schedule;
  schedule.join_count_ = records.size();
  schedule.leave_count_ = leaves.size();
  schedule.events_.reserve(records.size() + leaves.size());
  const auto emit = [&](const Keyed& k, bool join) {
    const MemberRecord& r = records[k.second];
    schedule.events_.push_back({k.first, r.lan, r.group, join});
  };
  std::uint32_t a = 0;  // next warm-start or Poisson record
  auto f = flash_joins.begin();
  auto l = leaves.begin();
  while (a < flash_begin || f != flash_joins.end()) {
    // Arrivals precede every flash record, so they win (time, index) ties.
    Keyed join;
    if (f == flash_joins.end() ||
        (a < flash_begin && records[a].join_at <= f->first)) {
      join = {records[a].join_at, a};
      ++a;
    } else {
      join = *f++;
    }
    for (; l != leaves.end() && l->first < join.first; ++l) emit(*l, false);
    emit(join, true);
  }
  for (; l != leaves.end(); ++l) emit(*l, false);

  std::uint64_t live = 0;
  for (const MembershipEvent& e : schedule.events_) {
    live += e.join ? 1 : 0;
    live -= e.join ? 0 : 1;
    schedule.peak_members_ = std::max(schedule.peak_members_, live);
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
