// Unified metrics registry: the plain uint64 fields of the *Stats
// structs, bound by pointer under hierarchical dotted names
// ("cbt.router.3.joins_originated", "netsim.subnet.7.frames_dropped").
//
// Design constraints, in order:
//  * zero-overhead hot path — the structs keep their fields as the
//    storage, so recording is a plain increment; the registry mirrors
//    them by pointer (RegisterExternal / BindStats) and snapshots see
//    live values without any hot-path change;
//  * deterministic snapshots — MetricSet is sorted by name; the same run
//    always serializes identically.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/fields.h"

namespace cbt::obs {

/// One named sample in a snapshot.
struct Sample {
  std::string name;
  std::uint64_t value = 0;
};

/// An immutable, name-sorted snapshot of metric values — the unified view
/// the experiment harness consumes instead of pattern-matching
/// per-protocol struct fields.
class MetricSet {
 public:
  MetricSet() = default;
  /// Takes arbitrary-order samples and sorts them by name.
  explicit MetricSet(std::vector<Sample> samples);

  std::optional<std::uint64_t> Get(std::string_view name) const;
  std::uint64_t ValueOr(std::string_view name, std::uint64_t fallback) const;

  /// Samples whose name starts with `prefix` (names kept verbatim).
  MetricSet WithPrefix(std::string_view prefix) const;

  /// Sum of every sample whose name ends with `suffix` — the harness
  /// rollup for "this field across all routers", e.g.
  /// SumWithSuffix(".malformed_control").
  std::uint64_t SumWithSuffix(std::string_view suffix) const;

  /// Per-name difference `this - earlier` (names missing from `earlier`
  /// count as 0; names missing from `this` are dropped). The windowed
  /// measurement idiom: snapshot, run, snapshot, diff.
  MetricSet Diff(const MetricSet& earlier) const;

  /// Merges disjoint sets (duplicate names keep this set's value).
  void Merge(const MetricSet& other);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  auto begin() const { return samples_.begin(); }
  auto end() const { return samples_.end(); }

 private:
  std::vector<Sample> samples_;  // sorted by name
};

/// The registry: a name -> counter-field map. The fields belong to the
/// *Stats structs that own them; the registry only reads (and on Reset(),
/// zeroes) through the pointers. Single-threaded, like the simulator it
/// observes.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Mirrors an externally-owned counter field. The owner keeps
  /// incrementing its plain field — the hot path is untouched.
  /// Re-registration rebinds the name to the new address (routers built
  /// in sequential bench runs reuse names).
  void RegisterExternal(const std::string& name, std::uint64_t* field);

  bool Contains(const std::string& name) const;
  std::size_t size() const { return fields_.size(); }

  /// Name-sorted snapshot of every registered metric.
  MetricSet Snapshot() const;

  /// Zeroes every bound field.
  void Reset();

 private:
  std::map<std::string, std::uint64_t*> fields_;
};

/// Registers every field of a reflected stats struct under
/// `<prefix>.<field>` as an external mirror.
template <typename Stats>
void BindStats(Registry& registry, const std::string& prefix, Stats& stats) {
  ForEachStatsField(stats, [&](const char* name, std::uint64_t& field,
                               FieldTag) {
    registry.RegisterExternal(prefix + "." + name, &field);
  });
}

/// Snapshot view of one stats struct without a registry — the typed
/// facades (RouterStats & friends) expose their fields through this.
template <typename Stats>
MetricSet StatsSnapshot(const Stats& stats, const std::string& prefix) {
  std::vector<Sample> samples;
  ForEachStatsField(stats, [&](const char* name, const std::uint64_t& field,
                               FieldTag) {
    samples.push_back({prefix + "." + name, field});
  });
  return MetricSet(std::move(samples));
}

}  // namespace cbt::obs
