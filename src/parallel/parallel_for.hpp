// parallel_for by recursive range splitting — the "parallel for" of the
// paper's work-time framework, realized as a balanced binary tree of forks
// (paper §2.2.1).
#pragma once

#include <algorithm>
#include <cstddef>

#include "parallel/fork_join.hpp"

namespace parct::par {

/// Automatic grain: ~8 leaves per worker, at least 1. Uses
/// configured_workers(), which reports the worker count the pool would be
/// started with even before initialization — so the grain is well-defined
/// (and free of the pool-starting side effect) when computed before the
/// pool is up.
inline std::size_t default_grain(std::size_t n) {
  const std::size_t leaves = 8 * static_cast<std::size_t>(
      scheduler::configured_workers());
  return std::max<std::size_t>(1, n / std::max<std::size_t>(1, leaves));
}

/// True while an SP-bags detection session drives this thread: loops and
/// primitives must then take their *parallel* code paths (serially, at the
/// finest grain) so the detector models the full logical fork tree.
/// Constant false when PARCT_RACE_DETECT is off — the optimizer deletes
/// the checks.
inline bool race_detect_forced() {
#if PARCT_RACE_DETECT
  return analysis::spbags::active();
#else
  return false;
#endif
}

/// The canonical "degenerate to a plain sequential loop" test for the
/// primitives: true on a 1-worker pool or under a scheduler::SerialScope,
/// unless a detection session forces the parallel shape.
inline bool sequential_mode() {
  return !race_detect_forced() &&
         (scheduler::serial_forced() || scheduler::num_workers() == 1);
}

namespace detail {

template <typename F>
void parallel_for_rec(std::size_t lo, std::size_t hi, std::size_t grain,
                      const F& f) {
  if (hi - lo <= grain) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  fork2join([&] { parallel_for_rec(lo, mid, grain, f); },
            [&] { parallel_for_rec(mid, hi, grain, f); });
}

}  // namespace detail

/// Calls `f(i)` for every i in [lo, hi), in parallel. When the pool has a
/// single worker this degenerates to a plain loop (no task overhead), which
/// keeps 1-thread timings an honest sequential baseline.
template <typename F>
void parallel_for(std::size_t lo, std::size_t hi, const F& f,
                  std::size_t grain = 0) {
  if (hi <= lo) return;
  if (race_detect_forced()) {
    // Grain is a performance hint, not a semantic boundary: every
    // iteration may run in parallel with every other, so the detector
    // models the loop at grain 1.
    detail::parallel_for_rec(lo, hi, 1, f);
    return;
  }
  const std::size_t n = hi - lo;
  if (scheduler::serial_forced() || scheduler::num_workers() == 1 ||
      n == 1) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  if (grain == 0) grain = default_grain(n);
  detail::parallel_for_rec(lo, hi, grain, f);
}

}  // namespace parct::par
