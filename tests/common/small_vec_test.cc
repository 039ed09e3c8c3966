#include "common/small_vec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace cbt {
namespace {

TEST(SmallVec, StaysInlineUpToCapacity) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_TRUE(v.inlined());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[(std::size_t)i], i);
}

TEST(SmallVec, SpillsToHeapAndKeepsContents) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 20; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 20u);
  EXPECT_FALSE(v.inlined());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(v[(std::size_t)i], i);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 19);
}

// Regression: push_back(v.front()) at exactly capacity must not read the
// element through a dangling pointer after the growth reallocation.
TEST(SmallVec, PushBackOfOwnElementSurvivesGrowth) {
  SmallVec<int, 2> v;
  v.push_back(41);
  v.push_back(42);
  ASSERT_TRUE(v.inlined());
  v.push_back(v.front());  // grows right here
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.back(), 41);
}

TEST(SmallVec, EraseSingleAndRange) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 6; ++i) v.push_back(i);
  v.erase(v.begin() + 1);  // 0 2 3 4 5
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v[1], 2);
  v.erase(v.begin() + 2, v.begin() + 4);  // 0 2 5
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 5);
  v.erase(v.begin(), v.begin());  // empty range: no-op
  EXPECT_EQ(v.size(), 3u);
}

TEST(SmallVec, RemoveIfIdiom) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 8; ++i) v.push_back(i);
  v.erase(std::remove_if(v.begin(), v.end(), [](int x) { return x % 2 == 0; }),
          v.end());
  EXPECT_EQ(v.size(), 4u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], (int)(2 * i + 1));
  }
}

TEST(SmallVec, MoveStealsHeapAndCopiesInline) {
  SmallVec<int, 2> small;
  small.push_back(7);
  SmallVec<int, 2> small_moved(std::move(small));
  ASSERT_EQ(small_moved.size(), 1u);
  EXPECT_EQ(small_moved[0], 7);

  SmallVec<int, 2> big;
  for (int i = 0; i < 10; ++i) big.push_back(i);
  const int* data = big.data();
  SmallVec<int, 2> big_moved(std::move(big));
  EXPECT_EQ(big_moved.data(), data);  // heap buffer stolen, not copied
  EXPECT_EQ(big_moved.size(), 10u);

  SmallVec<int, 2> assigned;
  assigned = std::move(big_moved);
  EXPECT_EQ(assigned.size(), 10u);
  EXPECT_EQ(assigned[9], 9);
}

// Regression: move-assigning an empty inline source into a heap-backed
// destination must reset capacity to the inline N. Leaving the old heap
// capacity behind made later push_backs skip Grow and write past the
// inline buffer (heap corruption in Fib's sorted-vector shifts).
TEST(SmallVec, MoveAssignEmptyInlineIntoHeapBackedResetsCapacity) {
  SmallVec<int, 2> dst;
  for (int i = 0; i < 10; ++i) dst.push_back(i);
  ASSERT_FALSE(dst.inlined());

  dst = SmallVec<int, 2>{};
  EXPECT_TRUE(dst.empty());
  EXPECT_TRUE(dst.inlined());
  EXPECT_EQ(dst.capacity(), 2u);

  // Filling past N again must go through Grow, not scribble off the end
  // of the inline buffer.
  for (int i = 0; i < 10; ++i) dst.push_back(i);
  EXPECT_EQ(dst.size(), 10u);
  EXPECT_FALSE(dst.inlined());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dst[(std::size_t)i], i);
}

TEST(SmallVec, EqualityAndClear) {
  SmallVec<std::uint16_t, 3> a;
  SmallVec<std::uint16_t, 3> b;
  EXPECT_TRUE(a == b);
  a.push_back(1);
  EXPECT_FALSE(a == b);
  b.push_back(1);
  EXPECT_TRUE(a == b);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_GE(a.capacity(), 3u);
}

TEST(SmallVec, InitializerListConstructAndAssign) {
  SmallVec<int, 4> v{1, 2, 3};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.inlined());
  EXPECT_EQ(v[2], 3);
  v = {7, 8, 9, 10, 11};  // past the inline capacity
  EXPECT_EQ(v.size(), 5u);
  EXPECT_FALSE(v.inlined());
  EXPECT_EQ(v.front(), 7);
  EXPECT_EQ(v.back(), 11);
  v = {};
  EXPECT_TRUE(v.empty());
}

TEST(SmallVec, AssignsFromVectorAndFill) {
  const std::vector<int> source{4, 5, 6};
  SmallVec<int, 4> v;
  v = source;
  EXPECT_TRUE(std::equal(v.begin(), v.end(), source.begin(), source.end()));
  v.assign(6, 9);
  EXPECT_EQ(v.size(), 6u);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](int x) { return x == 9; }));
}

TEST(SmallVec, ResizeZeroFillsGrowthAndTruncates) {
  SmallVec<std::uint8_t, 4> v{1, 2};
  v.resize(6);
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[1], 2);
  for (std::size_t i = 2; i < 6; ++i) EXPECT_EQ(v[i], 0) << i;
  v.resize(1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1);
}

}  // namespace
}  // namespace cbt
