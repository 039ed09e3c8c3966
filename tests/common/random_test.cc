#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

namespace cbt {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7u);
}

/// NextBelow before power-of-two bounds took a mask: rejection over the
/// top of the range, then modulo, for every bound.
std::uint64_t ModuloRejection(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = rng.NextU64();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, NextBelowEqualsModuloRejection) {
  std::vector<std::uint64_t> bounds;
  for (int k = 0; k < 64; ++k) bounds.push_back(std::uint64_t{1} << k);
  // Non-powers of two, the last rejecting almost half of all draws.
  for (const std::uint64_t b : {3ull, 48ull, 1000003ull, (1ull << 63) + 1}) {
    bounds.push_back(b);
  }
  for (const std::uint64_t bound : bounds) {
    Rng got(bound);
    Rng want(bound);
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(got.NextBelow(bound), ModuloRejection(want, bound))
          << "bound " << bound << " draw " << i;
    }
    // Both consumed the same number of raw draws.
    ASSERT_EQ(got.NextU64(), want.NextU64()) << "bound " << bound;
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  // Mean of U[0,1) should be near 0.5.
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) ++heads;
  }
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const std::size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

}  // namespace
}  // namespace cbt
