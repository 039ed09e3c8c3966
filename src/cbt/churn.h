// Heavy-churn membership scenario generation (cbt::scenario).
//
// Produces a deterministic, seeded schedule of anonymous membership
// events — (time, LAN index, group index, join|leave) — from
// configurable stochastic processes:
//
//  * Poisson member arrivals with exponential holding times (the classic
//    open churn model of Cho & Breen's dynamic-multicast analysis);
//  * zipf group popularity (a few hot groups absorb most members);
//  * flash crowds: a burst of joins to one group inside a short window;
//  * correlated leave storms: a fraction of one group's current members
//    all leave inside a short window (the "end of the broadcast" event
//    that stresses leave-latency and tree teardown).
//
// Events are *anonymous*: a leave means "one member of (lan, group)
// departs" and executors retire the oldest member (FIFO). That keeps the
// schedule equally applicable to the per-host reference model (one
// HostAgent per member, joined in event order) and the aggregate model
// (igmp::MembershipAggregate counts), which is exactly how the
// differential tests pin the two models equivalent.
//
// Generation never touches a Simulator: it draws from its own seeded Rng
// so the same (params, lan_count, seed) triple yields the identical
// schedule in every process and at every --jobs count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "netsim/simulator.h"

namespace cbt::scenario {

/// Samples 0-based ranks with P(k) proportional to 1/(k+1)^s via a
/// precomputed CDF and binary search. s = 0 is uniform; s ~ 1 is the
/// classic zipf popularity skew.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s);
  std::uint32_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

struct FlashCrowd {
  SimTime at = 0;
  std::uint32_t group = 0;       // group index the crowd floods into
  std::uint64_t members = 0;     // joins injected
  SimDuration window = kSecond;  // joins spread uniformly over [at, at+window]
};

struct LeaveStorm {
  SimTime at = 0;
  std::uint32_t group = 0;
  double fraction = 1.0;         // of the group's members active at `at`
  SimDuration window = kSecond;  // departures spread over [at, at+window]
};

struct ChurnParams {
  std::uint32_t groups = 8;
  /// Zipf popularity exponent across groups (0 = uniform).
  double zipf_s = 1.0;
  /// Members already present at t = 0 (steady-state warm start); their
  /// residual holding times are exponential, as memorylessness demands.
  std::uint64_t initial_members = 0;
  /// Poisson arrival rate of new members, per simulated second. The
  /// realized rate runs above it: Generate truncates the mean gap
  /// kSecond / rate to whole microseconds, then floors every drawn gap
  /// (at least 1 us), losing about another half microsecond per gap. At
  /// the 10k-router row's 1e6 / 60 per second the mean gap becomes 59 us
  /// and 120 s draw 2,049,362 arrivals, not 2,000,000. Rounding instead
  /// would change every churn schedule and digest, so the draws stay.
  double arrivals_per_second = 0.0;
  /// Mean of the exponential holding time.
  SimDuration mean_holding = 60 * kSecond;
  /// Events beyond this horizon are not generated.
  SimDuration duration = 300 * kSecond;
  std::vector<FlashCrowd> flashes;
  std::vector<LeaveStorm> storms;
};

/// One schedule entry, packed to 16 bytes: the 10k-router row holds
/// about five million of them for its whole run.
struct MembershipEvent {
  SimTime at = 0;
  std::uint32_t lan = 0;    // index into the executor's LAN list
  std::uint16_t group = 0;  // index into the executor's group list
  bool join = true;
};
static_assert(sizeof(MembershipEvent) == 16);

class ChurnSchedule {
 public:
  /// Deterministically expands `params` over `lan_count` member LANs.
  /// `params.groups` must fit MembershipEvent::group (at most 65536).
  static ChurnSchedule Generate(const ChurnParams& params,
                                std::uint32_t lan_count, std::uint64_t seed);

  const std::vector<MembershipEvent>& events() const { return events_; }
  std::uint64_t join_count() const { return join_count_; }
  std::uint64_t leave_count() const { return leave_count_; }
  /// Maximum concurrent membership over the whole schedule (plus the
  /// warm-start members still present).
  std::uint64_t peak_members() const { return peak_members_; }

 private:
  std::vector<MembershipEvent> events_;
  std::uint64_t join_count_ = 0;
  std::uint64_t leave_count_ = 0;
  std::uint64_t peak_members_ = 0;
};

/// Drives a schedule through a simulation without enqueueing one event
/// per membership change up front: only the next batch is ever pending.
/// `apply` runs at each event's timestamp, in schedule order.
class ChurnRunner {
 public:
  ChurnRunner(netsim::Simulator& sim, const ChurnSchedule& schedule,
              std::function<void(const MembershipEvent&)> apply)
      : sim_(&sim), events_(&schedule.events()), apply_(std::move(apply)) {}

  /// Schedules the first pending event; later batches chain themselves.
  void Start() { Arm(); }

  std::size_t applied() const { return next_; }
  bool done() const { return next_ >= events_->size(); }

 private:
  void Arm();
  void Pump();

  netsim::Simulator* sim_;
  const std::vector<MembershipEvent>* events_;
  std::function<void(const MembershipEvent&)> apply_;
  std::size_t next_ = 0;
};

}  // namespace cbt::scenario
