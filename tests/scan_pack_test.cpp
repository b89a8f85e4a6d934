// Tests for the compaction primitive pack_into (the fused scan+pack),
// checked against a sequential filter.
#include <gtest/gtest.h>

#include <vector>

#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/pack.hpp"
#include "primitives/workspace.hpp"

namespace parct::prim {
namespace {

class ScanPackTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { par::scheduler::initialize(GetParam()); }
  void TearDown() override { par::scheduler::initialize(1); }
};

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed) {
  hashing::SplitMix64 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(1000);
  return v;
}

template <typename T, typename Pred>
std::vector<T> sequential_filter(const std::vector<T>& in, const Pred& keep) {
  std::vector<T> out;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (keep(i)) out.push_back(in[i]);
  }
  return out;
}

TEST_P(ScanPackTest, PackIntoKeepsOrder) {
  const auto in = random_values(100000, 3);
  auto keep = [](std::size_t i) { return (i % 7 == 0) || (i % 11 == 3); };
  Workspace ws;
  std::vector<std::uint64_t> out;
  const std::size_t kept = pack_into(in, keep, out, ws);
  const auto want = sequential_filter(in, keep);
  EXPECT_EQ(kept, want.size());
  EXPECT_EQ(out, want);
}

TEST_P(ScanPackTest, PackIntoAllAndNone) {
  const auto v = random_values(3000, 4);
  Workspace ws;
  std::vector<std::uint64_t> out;
  EXPECT_EQ(pack_into(v, [](std::size_t) { return true; }, out, ws),
            v.size());
  EXPECT_EQ(out, v);
  EXPECT_EQ(pack_into(v, [](std::size_t) { return false; }, out, ws), 0u);
  EXPECT_TRUE(out.empty());
  out.assign(5, 1);  // stale contents must not survive an empty input
  EXPECT_EQ(pack_into(std::vector<std::uint64_t>{},
                      [](std::size_t) { return true; }, out, ws),
            0u);
  EXPECT_TRUE(out.empty());
}

TEST_P(ScanPackTest, PackIntoReusedAcrossSizes) {
  // One workspace and one destination reused across growing and shrinking
  // inputs: reuse must not change any result.
  Workspace ws;
  std::vector<std::uint64_t> out;
  for (std::size_t n : {100000, 0, 4097, 1, 4096, 2, 100}) {
    const auto in = random_values(n, n + 13);
    auto keep = [&](std::size_t i) { return in[i] % 3 == 0; };
    const std::size_t kept = pack_into(in, keep, out, ws);
    const auto want = sequential_filter(in, keep);
    EXPECT_EQ(kept, want.size()) << "n=" << n;
    EXPECT_EQ(out, want) << "n=" << n;
  }
}

TEST_P(ScanPackTest, PackIntoIsAllocationFreeWhenWarm) {
  Workspace ws;
  std::vector<std::uint64_t> out;
  std::vector<std::uint64_t> in = random_values(50000, 21);
  auto keep = [&](std::size_t i) { return (in[i] & 1) == 0; };
  pack_into(in, keep, out, ws);  // warm-up sizes the pool + destination
  const WorkspaceStats warm = ws.stats();
  for (int r = 0; r < 8; ++r) {
    ws.epoch_reset();
    pack_into(in, keep, out, ws);
  }
  const WorkspaceStats d = workspace_stats_delta(warm, ws.stats());
  EXPECT_EQ(d.misses, 0u);
  EXPECT_EQ(d.container_growths, 0u);
  EXPECT_EQ(d.bytes_allocated, 0u);
  EXPECT_EQ(d.acquires, d.hits);
}

TEST(PackOffsetsGuard, BoundaryAtTwoToTheThirtyTwo) {
  // pack_into's precondition (offsets_fit_uint32) at the exact 2^32
  // boundary — no 4 GiB input required. 2^32 - 1 is the largest kept
  // total its 32-bit block offsets can place.
  EXPECT_TRUE(offsets_fit_uint32((std::uint64_t{1} << 32) - 1));
  EXPECT_FALSE(offsets_fit_uint32(std::uint64_t{1} << 32));
  // The guard must compare in 64 bits: a narrowed total would wrap 2^32
  // to 0 and "fit". Totals beyond the boundary keep failing.
  EXPECT_FALSE(offsets_fit_uint32((std::uint64_t{1} << 32) + 12345));
  EXPECT_TRUE(offsets_fit_uint32(0));
}

INSTANTIATE_TEST_SUITE_P(Workers, ScanPackTest, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parct::prim
