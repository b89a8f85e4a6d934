// google-benchmark microbenchmarks for the fork-join scheduler substrate:
// fork2join overhead and parallel_for throughput at several worker counts.
#include <benchmark/benchmark.h>

#include <atomic>

#include "parallel/fork_join.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scheduler.hpp"

using namespace parct;

namespace {

void BM_Fork2JoinOverhead(benchmark::State& state) {
  par::scheduler::initialize(static_cast<unsigned>(state.range(0)));
  int a = 0, b = 0;
  for (auto _ : state) {
    par::fork2join([&] { benchmark::DoNotOptimize(++a); },
                   [&] { benchmark::DoNotOptimize(++b); });
  }
}
BENCHMARK(BM_Fork2JoinOverhead)->Arg(1)->Arg(2)->Arg(4);

void BM_ForkTreeDepth(benchmark::State& state) {
  par::scheduler::initialize(4);
  struct Rec {
    static void run(int depth) {
      if (depth == 0) return;
      par::fork2join([&] { run(depth - 1); }, [&] { run(depth - 1); });
    }
  };
  for (auto _ : state) Rec::run(static_cast<int>(state.range(0)));
  state.SetItemsProcessed(state.iterations() * (1u << state.range(0)));
}
BENCHMARK(BM_ForkTreeDepth)->Arg(6)->Arg(10);

void BM_ParallelForSaxpyLike(benchmark::State& state) {
  par::scheduler::initialize(static_cast<unsigned>(state.range(1)));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n, 1.5), y(n, 0.25);
  for (auto _ : state) {
    par::parallel_for(0, n, [&](std::size_t i) { y[i] += 2.0 * x[i]; });
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForSaxpyLike)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 4});

}  // namespace

BENCHMARK_MAIN();
