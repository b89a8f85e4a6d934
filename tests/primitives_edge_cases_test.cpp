// Edge cases for the parallel primitives (pack, counting sort): empty
// input, single element, all-flags-set / all-clear, and sizes straddling
// the internal block boundaries (kBlock = 4096 for pack, 8192 for
// counting) so both the sequential fallback and the blocked parallel
// paths — including the one-element spill block — are exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/counting.hpp"
#include "primitives/pack.hpp"
#include "primitives/workspace.hpp"

namespace parct {
namespace {

// Straddles the kBlock thresholds of pack.hpp (4096) and counting.hpp
// (8192): below, exactly on, one past, and multiple blocks.
const std::size_t kSizes[] = {0,    1,    2,    4095, 4096, 4097,
                              8191, 8192, 8193, 16384};

std::vector<std::uint32_t> ids(std::size_t n, std::uint32_t base) {
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), base);
  return v;
}

class PrimitivesEdgeCases : public ::testing::Test {
 protected:
  // Multiple workers so the blocked parallel paths actually run.
  void SetUp() override { par::scheduler::initialize(4); }
  void TearDown() override { par::scheduler::initialize(1); }
};

TEST_F(PrimitivesEdgeCases, PackAllFlagsSetAndClear) {
  Workspace ws;
  std::vector<std::uint32_t> out;
  for (const std::size_t n : kSizes) {
    const std::vector<std::uint32_t> in = ids(n, 0);
    EXPECT_EQ(prim::pack_into(in, [](std::size_t) { return true; }, out, ws),
              n)
        << "n=" << n;
    EXPECT_EQ(out, in) << "n=" << n;
    EXPECT_EQ(
        prim::pack_into(in, [](std::size_t) { return false; }, out, ws), 0u)
        << "n=" << n;
    EXPECT_TRUE(out.empty()) << "n=" << n;
  }
}

TEST_F(PrimitivesEdgeCases, PackKeepsOrderAcrossBlockBoundaries) {
  Workspace ws;
  std::vector<std::uint32_t> out;
  for (const std::size_t n : kSizes) {
    const auto pred = [](std::size_t i) { return i % 3 == 1; };
    const std::vector<std::uint32_t> in = ids(n, 100);
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < n; ++i) {
      if (pred(i)) want.push_back(in[i]);
    }
    EXPECT_EQ(prim::pack_into(in, pred, out, ws), want.size()) << "n=" << n;
    EXPECT_EQ(out, want) << "n=" << n;
  }
}

TEST_F(PrimitivesEdgeCases, PackSingleElement) {
  Workspace ws;
  const std::vector<int> one{42};
  std::vector<int> out;
  EXPECT_EQ(prim::pack_into(one, [&](std::size_t i) { return one[i] == 42; },
                            out, ws),
            1u);
  EXPECT_EQ(out, one);
  EXPECT_EQ(prim::pack_into(one, [&](std::size_t i) { return one[i] != 42; },
                            out, ws),
            0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(PrimitivesEdgeCases, CountingSortIsStable) {
  const std::size_t num_keys = 5;
  for (const std::size_t n : kSizes) {
    std::vector<std::uint32_t> keys(n);
    hashing::SplitMix64 rng(n + 17);
    for (auto& k : keys) {
      k = static_cast<std::uint32_t>(rng.next_below(num_keys));
    }
    const auto order = prim::counting_sort_indices(
        n, [&](std::size_t i) { return keys[i]; }, num_keys);

    std::vector<std::uint32_t> want(n);
    std::iota(want.begin(), want.end(), 0u);
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return keys[a] < keys[b];
                     });
    EXPECT_EQ(order, want) << "n=" << n;
  }
}

TEST_F(PrimitivesEdgeCases, CountingSortDegenerateKeys) {
  // Single key value: the sort must be the identity permutation.
  const std::size_t n = 16384;
  const auto order = prim::counting_sort_indices(
      n, [](std::size_t) { return std::size_t{0}; }, 1);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(order[i], i);
  }
  // Empty and single-element inputs.
  EXPECT_TRUE(prim::counting_sort_indices(
                  0, [](std::size_t) { return std::size_t{0}; }, 3)
                  .empty());
  EXPECT_EQ(prim::counting_sort_indices(
                1, [](std::size_t) { return std::size_t{2}; }, 3),
            std::vector<std::uint32_t>{0});
}

}  // namespace
}  // namespace parct
