// Binary fork-join on top of the work-stealing scheduler.
#pragma once

#include "analysis/sp_bags.hpp"
#include "parallel/scheduler.hpp"

namespace parct::par {

namespace detail {

// Joins `t`: fast path pops it back off our own deque and runs it inline;
// otherwise it was stolen (or executed early by a nested join) and we help
// until it completes. A popped task that is not `t` belongs to an outer
// fork on this worker's stack and has not started; executing it early is
// safe and implies `t` is already gone from our deque.
inline void join(Task& t) {
  Task* popped = scheduler::detail::pop_task();
  if (popped == &t) {
    t.run();
  } else {
    if (popped != nullptr) popped->run();
    scheduler::detail::wait_for(&t);
  }
  t.rethrow_if_failed();
}

}  // namespace detail

/// Runs f1 and f2, potentially in parallel; returns when both complete.
/// Exceptions from either branch are rethrown (f2's wins if both throw).
template <typename F1, typename F2>
void fork2join(F1&& f1, F2&& f2) {
#if PARCT_RACE_DETECT
  // Under an SP-bags detection session the fork runs serially on the
  // session thread: each branch is a procedure (BranchScope) and the
  // enclosing ForkScope's destructor is the sync. See analysis/sp_bags.hpp.
  if (analysis::spbags::active()) {
    analysis::spbags::ForkScope fork;
    {
      analysis::spbags::BranchScope left;
      f1();
    }
    {
      analysis::spbags::BranchScope right;
      f2();
    }
    return;
  }
#endif
  // serial_forced() first: a SerialScope thread must not touch the pool
  // (num_workers() starts it), let alone push tasks onto worker 0's deque.
  if (scheduler::serial_forced() || scheduler::num_workers() == 1) {
    f1();
    f2();
    return;
  }
  scheduler::detail::RegionScope region;  // blocks pool re-init while t2 lives
  ClosureTask<F2> t2(f2);
  scheduler::detail::push_task(&t2);
  try {
    f1();
  } catch (...) {
    detail::join(t2);  // t2 references our stack; must complete before unwind
    throw;
  }
  detail::join(t2);
}

}  // namespace parct::par
