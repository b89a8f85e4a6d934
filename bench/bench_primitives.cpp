// google-benchmark microbenchmarks for the parallel primitives the
// algorithms run: compaction (pack_into) and the stable merge sort
// (parallel_sort_into) at several worker counts, each reusing a Workspace.
//
// After the benchmarks, main() runs a steady-state allocation probe: warm a
// Workspace, then count pool misses and destination growths over many hot
// pack_into/parallel_sort_into iterations. The counts are emitted as a
// "bench_primitives_alloc" StatsDump line (PARCT_STATS_JSON) and checked by
// the CI perf-smoke job against bench/alloc_budget.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/common/bench_util.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/pack.hpp"
#include "primitives/sort.hpp"
#include "primitives/workspace.hpp"

using namespace parct;

namespace {

std::vector<std::uint32_t> inputs(std::size_t n) {
  hashing::SplitMix64 rng(1);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_below(100));
  return v;
}

void BM_PackInto(benchmark::State& state) {
  par::scheduler::initialize(static_cast<unsigned>(state.range(1)));
  auto in = inputs(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint32_t> out;
  Workspace ws;
  for (auto _ : state) {
    prim::pack_into(in, [&](std::size_t i) { return (in[i] & 1) == 0; },
                    out, ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackInto)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4});

void BM_ParallelSortInto(benchmark::State& state) {
  par::scheduler::initialize(static_cast<unsigned>(state.range(1)));
  const auto in = inputs(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint32_t> v;
  Workspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    v.assign(in.begin(), in.end());
    state.ResumeTiming();
    prim::parallel_sort_into(v, std::less<std::uint32_t>{}, ws);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelSortInto)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4});

// Steady-state allocation probe: after one warm-up epoch, hot iterations
// of the _into primitives must be served entirely from the pool and the
// reused destination. Emits the counter deltas for the CI budget check.
void run_alloc_probe() {
  par::scheduler::initialize(4);
  const std::size_t n = bench::env_size("PARCT_BENCH_N", 1 << 20);
  const int iters = 32;
  auto in = inputs(n);
  std::vector<std::uint32_t> packed;
  Workspace ws;
  auto pred = [&](std::size_t i) { return (in[i] & 1) == 0; };
  auto one_iteration = [&] {
    ws.epoch_reset();
    prim::pack_into(in, pred, packed, ws);
    prim::parallel_sort_into(packed, std::less<std::uint32_t>{}, ws);
  };
  one_iteration();  // warm-up: populates the pool and the capacities
  const WorkspaceStats warm = ws.stats();
  for (int r = 0; r < iters; ++r) one_iteration();
  const WorkspaceStats d = workspace_stats_delta(warm, ws.stats());

  std::printf(
      "\n## alloc probe (n=%zu, %d steady-state iterations)\n"
      "ws_acquires,ws_hits,ws_misses,ws_bytes_allocated,"
      "ws_container_growths\n%llu,%llu,%llu,%llu,%llu\n",
      n, iters, static_cast<unsigned long long>(d.acquires),
      static_cast<unsigned long long>(d.hits),
      static_cast<unsigned long long>(d.misses),
      static_cast<unsigned long long>(d.bytes_allocated),
      static_cast<unsigned long long>(d.container_growths));

  bench::StatsDump dump("bench_primitives_alloc");
  dump.num("n", n)
      .num("iters", iters)
      .num("ws_acquires", d.acquires)
      .num("ws_hits", d.hits)
      .num("ws_misses", d.misses)
      .num("ws_bytes_allocated", d.bytes_allocated)
      .num("ws_container_growths", d.container_growths)
      .num("ws_container_bytes", d.container_bytes);
  dump.emit();
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  run_alloc_probe();
  return 0;
}
