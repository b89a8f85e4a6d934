#include "parallel/scheduler.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_injection.hpp"
#include "parallel/capability.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/chase_lev_deque.hpp"
#include "primitives/workspace.hpp"
#include "parallel/stats.hpp"
#include "parallel/tsan.hpp"

namespace parct::par::scheduler {
namespace {

struct alignas(64) WorkerState {
  ChaseLevDeque<Task> deque;
  std::uint64_t rng_state = 0;  // victim-selection RNG, owner thread only
  // Runtime counters (parct::par::stats). Owner-incremented with relaxed
  // atomics so concurrent snapshot reads are race-free.
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> parks{0};
};

struct Pool {
  Pool(unsigned n, std::uint64_t seed) : steal_seed(seed), workers(n) {
    for (unsigned i = 0; i < n; ++i) {
      workers[i] = std::make_unique<WorkerState>();
      // seed == 0 keeps the historical deterministic scheme; a nonzero
      // steal seed reshuffles every worker's victim order (the xorshift
      // state must stay nonzero).
      std::uint64_t s =
          seed == 0 ? 0x9E3779B97F4A7C15ull * (i + 1) + 1
                    : hashing::mix64(seed + 0x9E3779B97F4A7C15ull * (i + 1));
      if (s == 0) s = i + 1;
      workers[i]->rng_state = s;
    }
  }

  const std::uint64_t steal_seed;
  std::vector<std::unique_ptr<WorkerState>> workers;
  std::vector<std::thread> threads;  // helpers for workers 1..n-1

  std::atomic<bool> shutting_down{false};
  std::atomic<std::uint64_t> work_signal{0};
  std::atomic<int> sleepers{0};
  std::atomic<std::uint64_t> wakeups{0};
  // mu guards no data: it exists only for cv's wait protocol. The wake
  // condition is carried by the atomics above (work_signal/shutting_down),
  // re-checked in worker_loop's explicit wait loop.
  Mutex mu;
  CondVar cv;

  unsigned size() const { return static_cast<unsigned>(workers.size()); }
};

// Lifecycle: g_pool is an atomic pointer so lazy first-use initialization
// from any thread is race-free; g_lifecycle_mu serializes
// initialize/shutdown themselves.
std::atomic<Pool*> g_pool{nullptr};
Mutex g_lifecycle_mu;

// tl_pool tags which pool tl_worker_id belongs to: after a re-initialize,
// surviving threads carry ids from the old pool, and self_id() must not
// use them to index the new (possibly smaller) worker array.
thread_local unsigned tl_worker_id = 0;
thread_local const Pool* tl_pool = nullptr;
thread_local bool tl_in_task = false;
thread_local int tl_region_depth = 0;
thread_local int tl_serial_depth = 0;

unsigned self_id(const Pool& pool) {
  return tl_pool == &pool ? tl_worker_id : 0;
}

std::uint64_t next_random(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Attempts one steal sweep over all other workers in random order.
// Returns the stolen task or nullptr.
Task* try_steal(Pool& pool, unsigned self) {
  // Fault site: a slow/descheduled thief. Stalling here delays work
  // redistribution without changing what gets executed — the degradation
  // the serving layer's unhealthy-pool fallback is built for.
  PARCT_FAULT_STALL(fault::Site::kSchedulerSteal);
  const unsigned n = pool.size();
  if (n <= 1) return nullptr;
  std::uint64_t& rng = pool.workers[self]->rng_state;
  const unsigned start = static_cast<unsigned>(next_random(rng) % n);
  for (unsigned k = 0; k < n; ++k) {
    unsigned victim = start + k;
    if (victim >= n) victim -= n;
    if (victim == self) continue;
    if (Task* t = pool.workers[victim]->deque.steal_top()) {
      pool.workers[self]->steals.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  return nullptr;
}

void run_task(WorkerState& ws, Task* t) {
  ws.tasks_executed.fetch_add(1, std::memory_order_relaxed);
  bool saved = tl_in_task;
  tl_in_task = true;
  t->run();
  tl_in_task = saved;
}

// Main loop of helper workers (ids 1..n-1).
void worker_loop(Pool* pool, unsigned id) {
  tl_worker_id = id;
  tl_pool = pool;
  WorkerState& self = *pool->workers[id];
  constexpr int kSpinAttempts = 64;
  while (!pool->shutting_down.load(std::memory_order_acquire)) {
    if (Task* t = try_steal(*pool, id)) {
      run_task(self, t);
      // Drain our own deque: stolen tasks may have forked children.
      while (Task* own = self.deque.pop_bottom()) run_task(self, own);
      continue;
    }
    // Back off: spin a bit, then park until new work is signalled.
    bool found = false;
    for (int i = 0; i < kSpinAttempts; ++i) {
      std::this_thread::yield();
      if (Task* t = try_steal(*pool, id)) {
        run_task(self, t);
        while (Task* own = self.deque.pop_bottom()) run_task(self, own);
        found = true;
        break;
      }
    }
    if (found) continue;

    std::uint64_t sig = pool->work_signal.load(std::memory_order_seq_cst);
    pool->sleepers.fetch_add(1, std::memory_order_seq_cst);
    par::detail::fence(std::memory_order_seq_cst);
    // Final sweep after registering as a sleeper (pairs with the fence in
    // push_task) so a concurrent push cannot be missed.
    if (Task* t = try_steal(*pool, id)) {
      pool->sleepers.fetch_sub(1, std::memory_order_seq_cst);
      run_task(self, t);
      while (Task* own = self.deque.pop_bottom()) run_task(self, own);
      continue;
    }
    self.parks.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lk(pool->mu);
      while (!(pool->shutting_down.load(std::memory_order_acquire) ||
               pool->work_signal.load(std::memory_order_seq_cst) != sig)) {
        pool->cv.wait(lk);
      }
    }
    pool->sleepers.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void wake_sleepers(Pool& pool) {
  pool.work_signal.fetch_add(1, std::memory_order_seq_cst);
  par::detail::fence(std::memory_order_seq_cst);
  if (pool.sleepers.load(std::memory_order_seq_cst) > 0) {
    pool.wakeups.fetch_add(1, std::memory_order_relaxed);
    MutexLock lk(pool.mu);
    pool.cv.notify_all();
  }
}

void destroy_pool(Pool* pool) {
  if (pool == nullptr) return;
  pool->shutting_down.store(true, std::memory_order_release);
  {
    MutexLock lk(pool->mu);
    pool->cv.notify_all();
  }
  for (auto& t : pool->threads) t.join();
  delete pool;
}

// Sanity cap on PARCT_NUM_THREADS: well above any real machine, low
// enough that a typo cannot ask for millions of threads.
constexpr long kMaxWorkerCount = 1024;

unsigned default_worker_count() {
  // getenv is called once, before any workers exist, and nothing in this
  // process calls setenv — the concurrency-mt-unsafe hit does not apply.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("PARCT_NUM_THREADS")) {
    // strtol (not atoi): trailing garbage and out-of-range values must be
    // rejected, not silently truncated — "4x" or "99999999999" falling
    // back to the hardware count beats running with a nonsense pool size.
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (errno == 0 && end != env && *end == '\0' && v >= 1 &&
        v <= kMaxWorkerCount) {
      return static_cast<unsigned>(v);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct PoolGuard {
  ~PoolGuard() {
    MutexLock lk(g_lifecycle_mu);
    destroy_pool(g_pool.exchange(nullptr, std::memory_order_acq_rel));
  }
} g_pool_guard;

/// The active pool, started on first use (lazy init from any thread).
Pool& ensure_pool() {
  Pool* p = g_pool.load(std::memory_order_acquire);
  if (p == nullptr) {
    initialize();
    p = g_pool.load(std::memory_order_acquire);
  }
  return *p;
}

}  // namespace

void initialize(unsigned num_workers, std::uint64_t steal_seed) {
  if (num_workers == 0) num_workers = default_worker_count();
  auto matches = [&](const Pool* p) {
    return p != nullptr && p->size() == num_workers &&
           p->steal_seed == steal_seed;
  };
  if (matches(g_pool.load(std::memory_order_acquire))) return;  // idempotent
  if (in_parallel_region()) {
    // Tearing down the pool here would destroy deques that may still hold
    // live stack-allocated tasks of enclosing fork-join regions.
    throw std::logic_error(
        "parct: scheduler::initialize(n) with a new configuration called "
        "from inside a parallel region");
  }
  MutexLock lk(g_lifecycle_mu);
  if (matches(g_pool.load(std::memory_order_acquire))) return;
  destroy_pool(g_pool.exchange(nullptr, std::memory_order_acq_rel));
  Pool* next = new Pool(num_workers, steal_seed);
  tl_worker_id = 0;  // calling thread is worker 0
  tl_pool = next;
  for (unsigned i = 1; i < num_workers; ++i) {
    next->threads.emplace_back(worker_loop, next, i);
  }
  g_pool.store(next, std::memory_order_release);
}

void shutdown() {
  if (in_parallel_region()) {
    throw std::logic_error(
        "parct: scheduler::shutdown() called from inside a parallel region");
  }
  MutexLock lk(g_lifecycle_mu);
  destroy_pool(g_pool.exchange(nullptr, std::memory_order_acq_rel));
}

unsigned num_workers() { return ensure_pool().size(); }

unsigned configured_workers() {
  const Pool* p = g_pool.load(std::memory_order_acquire);
  return p != nullptr ? p->size() : default_worker_count();
}

bool initialized() {
  return g_pool.load(std::memory_order_acquire) != nullptr;
}

std::uint64_t steal_seed() { return ensure_pool().steal_seed; }

unsigned worker_id() {
  const Pool* p = g_pool.load(std::memory_order_acquire);
  return p != nullptr && tl_pool == p ? tl_worker_id : 0;
}

bool in_parallel_region() { return tl_in_task || tl_region_depth > 0; }

bool serial_forced() { return tl_serial_depth > 0; }

SerialScope::SerialScope() {
  // Fault site: a delayed handoff to the pool-free serial path (e.g. a
  // degraded serving epoch entering its serial fallback late).
  PARCT_FAULT_STALL(fault::Site::kSerialHandoff);
  ++tl_serial_depth;
}
SerialScope::~SerialScope() { --tl_serial_depth; }

Workspace& worker_workspace() {
  // One pool per thread: pool threads (the workers) each get their own,
  // and so does any plain thread calling the allocating primitive shims.
  // Freed with the thread, i.e. at pool shutdown for workers.
  static thread_local Workspace ws;
  return ws;
}

namespace detail {

RegionScope::RegionScope() { ++tl_region_depth; }
RegionScope::~RegionScope() { --tl_region_depth; }

void enter_serial() noexcept { ++tl_serial_depth; }
void exit_serial() noexcept { --tl_serial_depth; }

void push_task(Task* t) {
  Pool& pool = ensure_pool();
  pool.workers[self_id(pool)]->deque.push_bottom(t);
  wake_sleepers(pool);
}

Task* pop_task() {
  Pool& pool = ensure_pool();
  return pool.workers[self_id(pool)]->deque.pop_bottom();
}

bool steal_and_run_one() {
  Pool& pool = ensure_pool();
  const unsigned self = self_id(pool);
  if (Task* t = try_steal(pool, self)) {
    run_task(*pool.workers[self], t);
    return true;
  }
  return false;
}

void wait_for(Task* t) {
  Pool& pool = ensure_pool();
  const unsigned self = self_id(pool);
  WorkerState& ws = *pool.workers[self];
  while (!t->finished()) {
    // Help: run anything forked locally by tasks we ran while waiting,
    // then try to steal from others.
    if (Task* own = ws.deque.pop_bottom()) {
      run_task(ws, own);
      continue;
    }
    if (Task* stolen = try_steal(pool, self)) {
      run_task(ws, stolen);
      continue;
    }
    std::this_thread::yield();
  }
}

}  // namespace detail
}  // namespace parct::par::scheduler

namespace parct::par::stats {

PoolCounters snapshot() {
  scheduler::Pool& pool = scheduler::ensure_pool();
  PoolCounters out;
  out.num_workers = pool.size();
  out.wakeups = pool.wakeups.load(std::memory_order_relaxed);
  out.workers.resize(pool.size());
  for (unsigned i = 0; i < pool.size(); ++i) {
    const scheduler::WorkerState& ws = *pool.workers[i];
    WorkerCounters& w = out.workers[i];
    w.steals = ws.steals.load(std::memory_order_relaxed);
    w.tasks_executed = ws.tasks_executed.load(std::memory_order_relaxed);
    w.parks = ws.parks.load(std::memory_order_relaxed);
    out.steals += w.steals;
    out.tasks_executed += w.tasks_executed;
    out.parks += w.parks;
  }
  return out;
}

void reset() {
  scheduler::Pool& pool = scheduler::ensure_pool();
  pool.wakeups.store(0, std::memory_order_relaxed);
  for (unsigned i = 0; i < pool.size(); ++i) {
    scheduler::WorkerState& ws = *pool.workers[i];
    ws.steals.store(0, std::memory_order_relaxed);
    ws.tasks_executed.store(0, std::memory_order_relaxed);
    ws.parks.store(0, std::memory_order_relaxed);
  }
}

}  // namespace parct::par::stats
