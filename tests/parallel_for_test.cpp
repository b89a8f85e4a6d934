// Tests for parallel_for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/scheduler.hpp"

namespace parct::par {
namespace {

class ParallelForTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { scheduler::initialize(GetParam()); }
  void TearDown() override { scheduler::initialize(1); }
};

TEST_P(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<std::uint8_t> hit(n, 0);
  parallel_for(0, n, [&](std::size_t i) { ++hit[i]; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hit[i], 1) << i;
}

TEST_P(ParallelForTest, EmptyAndSingletonRanges) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST_P(ParallelForTest, NonZeroBaseOffset) {
  std::atomic<long> sum{0};
  parallel_for(10, 20, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 145);  // 10 + ... + 19
}

TEST_P(ParallelForTest, TinyGrainStillCorrect) {
  const std::size_t n = 5000;
  std::vector<std::uint8_t> hit(n, 0);
  parallel_for(0, n, [&](std::size_t i) { ++hit[i]; }, /*grain=*/1);
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(),
                          [](std::uint8_t h) { return h == 1; }));
}

TEST_P(ParallelForTest, NestedParallelFor) {
  const std::size_t n = 64;
  std::vector<std::atomic<int>> grid(n * n);
  for (auto& g : grid) g.store(0);
  parallel_for(0, n, [&](std::size_t i) {
    parallel_for(0, n, [&](std::size_t j) {
      grid[i * n + j].fetch_add(1);
    });
  });
  for (auto& g : grid) EXPECT_EQ(g.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelForTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parct::par
