// Scheduler observability: a snapshot API over the pool's runtime counters
// (steals, parks, wake-ups, tasks executed per worker). Counters live on
// the scheduler's slow paths (steal sweeps, parking) plus one relaxed
// increment per executed task, so they are always compiled in, as is the
// per-phase algorithm telemetry (see contraction/telemetry.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace parct::par::stats {

struct WorkerCounters {
  /// Tasks this worker stole from some victim's deque.
  std::uint64_t steals = 0;
  /// Tasks this worker executed (stolen, popped, or joined inline).
  std::uint64_t tasks_executed = 0;
  /// Times this worker gave up spinning and parked on the pool's
  /// condition variable.
  std::uint64_t parks = 0;
};

struct PoolCounters {
  unsigned num_workers = 0;
  /// Pool-wide sums of the per-worker counters.
  std::uint64_t steals = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t parks = 0;
  /// Times a task push found sleepers and signalled the condition
  /// variable (park/wake cycles = parks + wakeups).
  std::uint64_t wakeups = 0;
  std::vector<WorkerCounters> workers;
};

/// Snapshot of the active pool's counters, monotone since pool creation or
/// the last reset(). Starts the pool on first use. Safe to call while work
/// is running; per-worker values are then approximate (relaxed reads).
///
/// Concurrency contract (reviewed under clang-tidy's concurrency-* pass):
/// every counter is a std::atomic incremented only by its owning worker
/// and read with relaxed loads here, so individual values never tear; a
/// snapshot taken mid-run is NOT a consistent cross-counter cut, though —
/// totals can lag per-worker values by in-flight increments. Callers that
/// need exact totals snapshot at quiescence (after the joining call
/// returns), which is what the tests do.
PoolCounters snapshot();

/// Zeroes all counters of the active pool. Call between measurement
/// windows, not concurrently with running work.
void reset();

}  // namespace parct::par::stats
