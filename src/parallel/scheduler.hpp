// Fork-join work-stealing scheduler: the substrate the paper's algorithms
// run on (a stand-in for PASL [Acar et al.]).
//
// Design: one Chase-Lev deque per worker. `fork2join(f1, f2)` pushes a
// handle for f2, runs f1 inline, and then either pops f2 back (fast path,
// never stolen) or helps by stealing until f2 completes. Idle workers park
// on a condition variable after a bounded number of failed steals, so a
// quiescent pool burns no CPU.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>

namespace parct {
class Workspace;  // primitives/workspace.hpp
}  // namespace parct

namespace parct::par {

/// A unit of stealable work. Stack-allocated inside fork2join; the deque
/// stores raw pointers to these.
class Task {
 public:
  virtual ~Task() = default;

  /// Runs the task body, records any exception, and publishes completion.
  void run() noexcept {
    try {
      execute();
    } catch (...) {
      exception_ = std::current_exception();
    }
    finished_.store(true, std::memory_order_release);
  }

  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// Rethrows the exception captured during `run`, if any. Join-side only.
  void rethrow_if_failed() {
    if (exception_) std::rethrow_exception(exception_);
  }

 protected:
  virtual void execute() = 0;

 private:
  std::atomic<bool> finished_{false};
  std::exception_ptr exception_;
};

template <typename F>
class ClosureTask final : public Task {
 public:
  explicit ClosureTask(F& f) : f_(f) {}

 protected:
  void execute() override { f_(); }

 private:
  F& f_;
};

namespace scheduler {

/// Starts (or restarts) the pool with `num_workers` total workers, counting
/// the calling thread as worker 0. `num_workers == 0` means "use
/// PARCT_NUM_THREADS if set, else hardware_concurrency". `steal_seed`
/// perturbs the per-worker victim-selection RNGs so differential tests can
/// explore different steal orders from a single seed; 0 means the default
/// deterministic scheme. Idempotent when (count, steal_seed) is unchanged;
/// restarting with a *different* configuration from inside a parallel
/// region throws std::logic_error (tasks may be in flight on the deques
/// about to be destroyed).
void initialize(unsigned num_workers = 0, std::uint64_t steal_seed = 0);

/// Tears the pool down (joins helper threads). Called automatically at
/// exit. Throws std::logic_error from inside a parallel region.
void shutdown();

/// Number of workers in the active pool (>= 1). Starts the pool on first use.
unsigned num_workers();

/// Number of workers the pool has — or *would* have, if not started yet
/// (PARCT_NUM_THREADS / hardware_concurrency). Never starts the pool, so
/// grain heuristics can be computed before initialization without the
/// side effect of spinning up a default-sized pool.
unsigned configured_workers();

/// True if the pool is currently running (initialize() was called, or some
/// first-use path started it, and shutdown() has not torn it down).
bool initialized();

/// Steal-order seed of the active pool (0 = default scheme). Starts the
/// pool on first use.
std::uint64_t steal_seed();

/// Index of the calling worker in [0, num_workers()), or 0 for the main
/// thread outside any pool.
unsigned worker_id();

/// True if the calling thread is inside a task or an open fork-join region
/// (i.e. stack-allocated tasks of this thread may be live on the deques).
bool in_parallel_region();

/// True while the calling thread has an open SerialScope: every fork-join
/// construct degenerates to a plain sequential call on this thread and
/// never touches the pool (no task pushes, no pool start).
bool serial_forced();

/// RAII: forces all parallel constructs opened by the calling thread to run
/// serially, without interacting with the work-stealing pool at all.
///
/// The serving layer opens one per degraded epoch
/// (BatchServer::set_pool_healthy(false)): the epoch's update and queries
/// then run on the engine thread while the pool is stalled or being
/// debugged. It is also what lets a *second* external thread run
/// pool-free work: the scheduler maps every non-pool thread onto worker
/// 0's deque, so two external threads forking concurrently would race on
/// that deque — under a SerialScope the thread never forks.
/// Nestable; an active SP-bags detection session takes precedence (the
/// detector needs the logical fork tree, which it executes serially
/// anyway).
class SerialScope {
 public:
  SerialScope();
  ~SerialScope();
  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;
};

/// The calling worker's scratch pool (primitives/workspace.hpp). One
/// Workspace per pool thread (thread-local, so the main thread outside any
/// pool gets one too): parallel phases that need scratch on their own
/// slice lease from their worker's pool and never contend on a shared
/// allocator. The allocating primitive shims (prim::pack & co.) draw their
/// block-offset scratch from here, which is what makes repeated calls
/// allocation-free in steady state. Blocks leased from one worker's pool
/// must be released on the same worker (the Lease must not be moved across
/// tasks).
Workspace& worker_workspace();

// --- internal API used by fork_join.hpp / adaptive.hpp ---
namespace detail {
/// Raw serial-mode entry/exit: what SerialScope does, minus the
/// kSerialHandoff fault site. Used by par::AdaptivePhase, which may open
/// one per sub-cutover propagation round on the *calling* thread — there
/// is no cross-thread handoff to perturb, and a chaos stall per tiny round
/// would be noise, not coverage. Must be balanced (RAII callers only).
void enter_serial() noexcept;
void exit_serial() noexcept;

/// RAII marker: the calling thread has stack-allocated tasks in flight, so
/// in_parallel_region() holds for the scope and pool re-initialization is
/// refused. fork_join.hpp opens one per multi-worker fork2join.
struct RegionScope {
  RegionScope();
  ~RegionScope();
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;
};

/// All of the functions below start the pool on first use.
void push_task(Task* t);
/// Tries to pop the owner's most recent task; returns nullptr if it was
/// stolen (or the deque is empty).
Task* pop_task();
/// Steals and runs at most one task from some victim; returns true if a
/// task was executed.
bool steal_and_run_one();
/// Busy-helps until `t` is finished: steals and runs other tasks, yielding
/// between failed attempts.
void wait_for(Task* t);
}  // namespace detail

}  // namespace scheduler
}  // namespace parct::par
