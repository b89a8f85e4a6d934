// Tests for the fork-join work-stealing scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/adaptive.hpp"
#include "parallel/fork_join.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/stats.hpp"

namespace parct::par {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  void TearDown() override { scheduler::initialize(1); }
};

TEST_F(SchedulerTest, SingleWorkerRunsInline) {
  scheduler::initialize(1);
  int a = 0, b = 0;
  fork2join([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST_F(SchedulerTest, ForkJoinBothBranchesRun) {
  scheduler::initialize(4);
  std::atomic<int> count{0};
  fork2join([&] { count.fetch_add(1); }, [&] { count.fetch_add(2); });
  EXPECT_EQ(count.load(), 3);
}

TEST_F(SchedulerTest, NestedForksComputeFibonacci) {
  scheduler::initialize(4);
  // Recursive fork tree exercises deep nesting and stealing.
  struct Fib {
    static long run(int n) {
      if (n < 2) return n;
      long x = 0, y = 0;
      fork2join([&] { x = run(n - 1); }, [&] { y = run(n - 2); });
      return x + y;
    }
  };
  EXPECT_EQ(Fib::run(20), 6765);
}

TEST_F(SchedulerTest, ParallelInvokeVariadic) {
  scheduler::initialize(3);
  std::atomic<int> mask{0};
  parallel_invoke([&] { mask.fetch_or(1); }, [&] { mask.fetch_or(2); },
                  [&] { mask.fetch_or(4); }, [&] { mask.fetch_or(8); },
                  [&] { mask.fetch_or(16); });
  EXPECT_EQ(mask.load(), 31);
}

TEST_F(SchedulerTest, ExceptionFromSecondBranchPropagates) {
  scheduler::initialize(2);
  EXPECT_THROW(
      fork2join([] {}, [] { throw std::runtime_error("branch 2"); }),
      std::runtime_error);
}

TEST_F(SchedulerTest, ExceptionFromFirstBranchStillJoins) {
  scheduler::initialize(2);
  std::atomic<bool> second_ran{false};
  EXPECT_THROW(fork2join([] { throw std::logic_error("branch 1"); },
                         [&] { second_ran.store(true); }),
               std::logic_error);
  EXPECT_TRUE(second_ran.load());
}

TEST_F(SchedulerTest, ReinitializeChangesWorkerCount) {
  scheduler::initialize(2);
  EXPECT_EQ(scheduler::num_workers(), 2u);
  scheduler::initialize(5);
  EXPECT_EQ(scheduler::num_workers(), 5u);
  scheduler::initialize(1);
  EXPECT_EQ(scheduler::num_workers(), 1u);
}

// The serial cutover is one constant: no pool size or pool start moves it,
// and clearing an override returns to it.
TEST_F(SchedulerTest, SerialCutoverIsFixedAcrossPoolStarts) {
  for (const unsigned p : {1u, 2u, 4u}) {
    scheduler::initialize(p);
    EXPECT_EQ(serial_cutover(), 1024u) << "p = " << p;
  }
  for (int restart = 0; restart < 10; ++restart) {
    scheduler::shutdown();
    scheduler::initialize(restart % 2 == 0 ? 4 : 2);
    EXPECT_EQ(serial_cutover(), 1024u) << "restart " << restart;
  }
  set_serial_cutover(0);
  EXPECT_EQ(serial_cutover(), 0u);
  clear_serial_cutover();
  EXPECT_EQ(serial_cutover(), 1024u);
  set_serial_cutover(~std::size_t{0});
  EXPECT_EQ(serial_cutover(), ~std::size_t{0});
  clear_serial_cutover();
  EXPECT_EQ(serial_cutover(), 1024u);
}

TEST_F(SchedulerTest, ManySmallRegionsNoDeadlock) {
  scheduler::initialize(4);
  long total = 0;
  for (int round = 0; round < 200; ++round) {
    long x = 0, y = 0;
    fork2join([&] { x = round; }, [&] { y = 2 * round; });
    total += x + y;
  }
  EXPECT_EQ(total, 3L * 199 * 200 / 2);
}

TEST_F(SchedulerTest, HeavyImbalanceIsStolen) {
  scheduler::initialize(4);
  // One branch is long, the other forks many short tasks. Just verifies
  // completion and the final sum.
  std::atomic<long> sum{0};
  fork2join(
      [&] {
        for (int i = 0; i < 1000; ++i) sum.fetch_add(1);
      },
      [&] {
        for (int i = 0; i < 100; ++i) {
          fork2join([&] { sum.fetch_add(3); }, [&] { sum.fetch_add(7); });
        }
      });
  EXPECT_EQ(sum.load(), 1000 + 100 * 10);
}

TEST_F(SchedulerTest, WorkerIdStableOnMainThread) {
  scheduler::initialize(3);
  EXPECT_EQ(scheduler::worker_id(), 0u);
  fork2join([] {}, [] {});
  EXPECT_EQ(scheduler::worker_id(), 0u);
}

TEST_F(SchedulerTest, PushPopWorkWithoutExplicitInitialization) {
  // push_task/pop_task used to dereference a null pool when issued before
  // any call that initialized it; they must now start the pool themselves.
  scheduler::shutdown();
  std::atomic<bool> ran{false};
  auto f = [&] { ran.store(true); };
  ClosureTask<decltype(f)> t(f);
  scheduler::detail::push_task(&t);
  if (Task* popped = scheduler::detail::pop_task()) {
    EXPECT_EQ(popped, &t);
    popped->run();
  } else {
    // A freshly started helper stole it; wait for completion.
    scheduler::detail::wait_for(&t);
  }
  EXPECT_TRUE(ran.load());
  EXPECT_GE(scheduler::num_workers(), 1u);
}

TEST_F(SchedulerTest, ReinitializeInsideParallelRegionThrows) {
  scheduler::initialize(4);
  bool threw = false;
  fork2join(
      [&] {
        try {
          scheduler::initialize(2);  // would destroy in-flight deques
        } catch (const std::logic_error&) {
          threw = true;
        }
      },
      [] {});
  EXPECT_TRUE(threw);
  // Same count stays idempotent (and allowed) inside a region.
  fork2join([] { scheduler::initialize(4); }, [] {});
  EXPECT_EQ(scheduler::num_workers(), 4u);
}

TEST_F(SchedulerTest, ReinitializeInvalidatesStaleWorkerIds) {
  // A thread that carried a worker id from a previous (larger) pool must
  // not index past the new pool's worker array.
  scheduler::initialize(8);
  fork2join([] {}, [] {});
  scheduler::initialize(2);
  std::atomic<int> count{0};
  fork2join([&] { count.fetch_add(1); }, [&] { count.fetch_add(2); });
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(scheduler::worker_id(), 0u);
}

TEST_F(SchedulerTest, StatsReportStealsOnImbalancedWork) {
  scheduler::initialize(4);
  stats::reset();
  // Keep forking until some helper has stolen; with 4 workers and
  // fine-grained tasks the first round suffices in practice.
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::atomic<std::uint64_t> sink{0};
    parallel_for(
        0, 2000,
        [&](std::size_t i) {
          std::uint64_t h = i * 0x9E3779B97F4A7C15ull;
          h ^= h >> 31;
          sink.fetch_add(h, std::memory_order_relaxed);
        },
        /*grain=*/1);
    if (stats::snapshot().steals > 0) break;
  }
  const stats::PoolCounters counters = stats::snapshot();
  EXPECT_EQ(counters.num_workers, 4u);
  EXPECT_EQ(counters.workers.size(), 4u);
  EXPECT_GT(counters.steals, 0u);
  EXPECT_GT(counters.tasks_executed, 0u);
  // Pool totals are the sums of the per-worker counters.
  std::uint64_t steals = 0, tasks = 0;
  for (const stats::WorkerCounters& w : counters.workers) {
    steals += w.steals;
    tasks += w.tasks_executed;
  }
  EXPECT_EQ(counters.steals, steals);
  EXPECT_EQ(counters.tasks_executed, tasks);
}

TEST_F(SchedulerTest, EnvWorkerCountParsesStrictly) {
  // PARCT_NUM_THREADS must be a whole in-range positive integer; anything
  // else (garbage suffix, zero, negative, overflow) falls back to the
  // hardware default instead of being silently truncated.
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned fallback = hw == 0 ? 1 : hw;
  struct Case {
    const char* env;
    unsigned expect;
  };
  const Case cases[] = {
      {"3", 3u},          {"1", 1u},
      {"3x", fallback},   {"abc", fallback},
      {"0", fallback},    {"-2", fallback},
      {"", fallback},     {"99999999999999999999", fallback},
      {"4096", fallback},  // above the sanity cap
  };
  for (const Case& c : cases) {
    ASSERT_EQ(setenv("PARCT_NUM_THREADS", c.env, 1), 0);
    scheduler::initialize(0);  // 0 = use the environment/hardware default
    EXPECT_EQ(scheduler::num_workers(), c.expect) << "env=\"" << c.env
                                                  << "\"";
  }
  unsetenv("PARCT_NUM_THREADS");
}

TEST_F(SchedulerTest, StatsResetZeroesCounters) {
  scheduler::initialize(4);
  for (int round = 0; round < 20; ++round) fork2join([] {}, [] {});
  stats::reset();
  // parks may tick up asynchronously (idle helpers going to sleep), but
  // steals/tasks/wakeups only move when new work is pushed.
  const stats::PoolCounters counters = stats::snapshot();
  EXPECT_EQ(counters.steals, 0u);
  EXPECT_EQ(counters.tasks_executed, 0u);
  EXPECT_EQ(counters.wakeups, 0u);
}

}  // namespace
}  // namespace parct::par
