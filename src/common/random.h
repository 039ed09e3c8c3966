// Deterministic pseudo-random source for workloads and topology generation.
//
// Experiments must be exactly reproducible across runs and platforms, so we
// use our own xoshiro256** implementation (std::mt19937 distributions are
// not portable across standard libraries).
#pragma once

#include <cstdint>
#include <vector>

namespace cbt {

/// xoshiro256** seeded through SplitMix64; cheap, high quality, portable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t NextU64();

  /// Uniform integer in [0, bound) by rejection sampling over the top of
  /// the range, then modulo (a mask when bound is a power of two); bound
  /// must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial.
  bool NextBool(double p_true);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(NextBelow(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
};

}  // namespace cbt
