// Ablation: the compaction algorithm C(n) (paper §2.6 / §5 "Compaction").
// The paper chooses the simple O(log n)-span prefix-sums pack over
// asymptotically faster CRCW alternatives because of constant factors; this
// bench compares the serial pack, the parallel prefix-sums pack, and an
// std::copy_if baseline across sizes and keep-densities.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/pack.hpp"
#include "primitives/workspace.hpp"

using namespace parct;

namespace {

std::vector<std::uint32_t> inputs(std::size_t n, std::uint32_t density_pct) {
  hashing::SplitMix64 rng(7);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) {
    x = rng.next_below(100) < density_pct ? 1u : 0u;
  }
  return v;
}

void BM_PackSerial(benchmark::State& state) {
  par::scheduler::initialize(1);  // serial fast path inside pack
  auto flags = inputs(static_cast<std::size_t>(state.range(0)),
                      static_cast<std::uint32_t>(state.range(1)));
  Workspace ws;
  for (auto _ : state) {
    std::vector<std::uint32_t> out;  // fresh output: timed with its allocation
    prim::pack_into(flags, [&](std::size_t i) { return flags[i] != 0; }, out,
                    ws);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackSerial)
    ->Args({1 << 20, 5})
    ->Args({1 << 20, 50})
    ->Args({1 << 20, 95});

void BM_PackParallelPrefixSums(benchmark::State& state) {
  par::scheduler::initialize(4);
  auto flags = inputs(static_cast<std::size_t>(state.range(0)),
                      static_cast<std::uint32_t>(state.range(1)));
  Workspace ws;
  for (auto _ : state) {
    std::vector<std::uint32_t> out;  // fresh output: timed with its allocation
    prim::pack_into(flags, [&](std::size_t i) { return flags[i] != 0; }, out,
                    ws);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackParallelPrefixSums)
    ->Args({1 << 20, 5})
    ->Args({1 << 20, 50})
    ->Args({1 << 20, 95});

void BM_PackStdCopyIfBaseline(benchmark::State& state) {
  auto flags = inputs(static_cast<std::size_t>(state.range(0)),
                      static_cast<std::uint32_t>(state.range(1)));
  for (auto _ : state) {
    std::vector<std::uint32_t> out;
    out.reserve(flags.size());
    std::copy_if(flags.begin(), flags.end(), std::back_inserter(out),
                 [](std::uint32_t x) { return x != 0; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackStdCopyIfBaseline)
    ->Args({1 << 20, 5})
    ->Args({1 << 20, 50})
    ->Args({1 << 20, 95});

}  // namespace

BENCHMARK_MAIN();
