#include "obs/metrics.h"

#include <algorithm>

namespace cbt::obs {

// --- MetricSet -------------------------------------------------------------

MetricSet::MetricSet(std::vector<Sample> samples)
    : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
}

std::optional<std::uint64_t> MetricSet::Get(std::string_view name) const {
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), name,
      [](const Sample& s, std::string_view n) { return s.name < n; });
  if (it == samples_.end() || it->name != name) return std::nullopt;
  return it->value;
}

std::uint64_t MetricSet::ValueOr(std::string_view name,
                                 std::uint64_t fallback) const {
  return Get(name).value_or(fallback);
}

MetricSet MetricSet::WithPrefix(std::string_view prefix) const {
  std::vector<Sample> out;
  for (const Sample& s : samples_) {
    if (s.name.size() >= prefix.size() &&
        std::string_view(s.name).substr(0, prefix.size()) == prefix) {
      out.push_back(s);
    }
  }
  return MetricSet(std::move(out));
}

std::uint64_t MetricSet::SumWithSuffix(std::string_view suffix) const {
  std::uint64_t total = 0;
  for (const Sample& s : samples_) {
    if (s.name.size() >= suffix.size() &&
        std::string_view(s.name).substr(s.name.size() - suffix.size()) ==
            suffix) {
      total += s.value;
    }
  }
  return total;
}

MetricSet MetricSet::Diff(const MetricSet& earlier) const {
  std::vector<Sample> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) {
    out.push_back({s.name, s.value - earlier.ValueOr(s.name, 0)});
  }
  return MetricSet(std::move(out));
}

void MetricSet::Merge(const MetricSet& other) {
  for (const Sample& s : other.samples_) {
    if (!Get(s.name)) samples_.push_back(s);
  }
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
}

// --- Registry --------------------------------------------------------------

void Registry::RegisterExternal(const std::string& name,
                                std::uint64_t* field) {
  fields_[name] = field;  // re-registration rebinds (see header)
}

bool Registry::Contains(const std::string& name) const {
  return fields_.contains(name);
}

MetricSet Registry::Snapshot() const {
  std::vector<Sample> samples;
  samples.reserve(fields_.size());
  for (const auto& [name, field] : fields_) samples.push_back({name, *field});
  return MetricSet(std::move(samples));
}

void Registry::Reset() {
  for (const auto& [name, field] : fields_) *field = 0;
}

}  // namespace cbt::obs
