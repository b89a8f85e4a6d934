// Tests for the parallel merge sort primitive.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <type_traits>
#include <vector>

#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/sort.hpp"
#include "primitives/workspace.hpp"

namespace parct::prim {
namespace {

class SortTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { par::scheduler::initialize(GetParam()); }
  void TearDown() override { par::scheduler::initialize(1); }

  Workspace ws_;
};

TEST_P(SortTest, RandomValuesMatchStdSort) {
  for (std::size_t n : {0, 1, 2, 100, 4096, 4097, 100000}) {
    hashing::SplitMix64 rng(n + 1);
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = rng.next_below(1 << 20);
    auto expected = v;
    std::sort(expected.begin(), expected.end());
    parallel_sort_into(v, std::less<std::uint64_t>{}, ws_);
    EXPECT_EQ(v, expected) << "n=" << n;
  }
}

TEST_P(SortTest, AlreadySortedAndReversed) {
  std::vector<int> up(50000), down(50000);
  for (int i = 0; i < 50000; ++i) {
    up[i] = i;
    down[i] = 50000 - i;
  }
  auto up2 = up;
  parallel_sort_into(up2, std::less<int>{}, ws_);
  EXPECT_EQ(up2, up);
  parallel_sort_into(down, std::less<int>{}, ws_);
  EXPECT_TRUE(std::is_sorted(down.begin(), down.end()));
}

// A key/index record shaped like the Edge records DynamicUpdater::apply
// sorts: trivially copyable, as parallel_sort_into requires.
struct KeyIndex {
  std::uint32_t key;
  std::uint32_t index;
};
static_assert(std::is_trivially_copyable_v<KeyIndex>);

TEST_P(SortTest, StabilityOnKeyedRecords) {
  // Sort by key only; indices must stay in input order per key.
  // The sizes straddle the sequential sort's 16-element insertion runs
  // and the 4096-element parallel cutover.
  for (std::size_t n : {5, 17, 333, 4096, 60000}) {
    hashing::SplitMix64 rng(7 + n);
    std::vector<KeyIndex> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = {static_cast<std::uint32_t>(rng.next_below(100)),
              static_cast<std::uint32_t>(i)};
    }
    parallel_sort_into(
        v, [](const KeyIndex& a, const KeyIndex& b) { return a.key < b.key; },
        ws_);
    for (std::size_t i = 1; i < n; ++i) {
      ASSERT_LE(v[i - 1].key, v[i].key) << "n=" << n;
      if (v[i - 1].key == v[i].key) {
        ASSERT_LT(v[i - 1].index, v[i].index) << "n=" << n;
      }
    }
  }
}

TEST_P(SortTest, CustomComparatorDescending) {
  hashing::SplitMix64 rng(9);
  std::vector<int> v(30000);
  for (auto& x : v) x = static_cast<int>(rng.next_below(1000));
  parallel_sort_into(v, std::greater<int>{}, ws_);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int>{}));
}

INSTANTIATE_TEST_SUITE_P(Workers, SortTest, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parct::prim
