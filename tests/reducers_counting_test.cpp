// Tests for the stable counting-sort primitive at 1 and 4 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/counting.hpp"

namespace parct {
namespace {

class CountingSortTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { par::scheduler::initialize(GetParam()); }
  void TearDown() override { par::scheduler::initialize(1); }
};

TEST_P(CountingSortTest, CountingSortStableAndOrdered) {
  const std::size_t n = 98765;
  const std::size_t K = 19;
  hashing::SplitMix64 rng(6);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_below(K));
  auto order = prim::counting_sort_indices(
      n, [&](std::size_t i) { return keys[i]; }, K);
  ASSERT_EQ(order.size(), n);
  // Keys non-decreasing, ties in increasing index order (stability).
  for (std::size_t i = 1; i < n; ++i) {
    ASSERT_LE(keys[order[i - 1]], keys[order[i]]);
    if (keys[order[i - 1]] == keys[order[i]]) {
      ASSERT_LT(order[i - 1], order[i]);
    }
  }
  // Permutation check.
  std::vector<std::uint8_t> seen(n, 0);
  for (auto i : order) seen[i] = 1;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](std::uint8_t s) { return s == 1; }));
}

TEST_P(CountingSortTest, CountingSortEdgeCases) {
  EXPECT_TRUE(prim::counting_sort_indices(
                  0, [](std::size_t) { return 0u; }, 1)
                  .empty());
  auto one = prim::counting_sort_indices(
      1, [](std::size_t) { return 0u; }, 3);
  EXPECT_EQ(one, std::vector<std::uint32_t>{0});
  // All keys identical.
  auto same = prim::counting_sort_indices(
      10000, [](std::size_t) { return 4u; }, 5);
  for (std::size_t i = 0; i < same.size(); ++i) {
    ASSERT_EQ(same[i], static_cast<std::uint32_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, CountingSortTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parct
