// Seeded workload generation for the differential harness: a single
// master seed determines the initial forest shape (including adversarial
// chains/stars from the shared shape table), every batch of the history
// (link/cut/insert/delete with skewed batch sizes, subtree moves, root
// churn), all staged aggregate weights, the worker count and the
// steal-order seed. The result is an explicit Trace — no RNG state needs
// to survive into the runner, so a trace replays identically anywhere.
#pragma once

#include <cstdint>
#include <functional>

#include "harness/trace.hpp"

namespace parct::harness {

struct WorkloadConfig {
  std::uint64_t seed = 1;

  /// Approximate initial forest size and spare ids for vertex churn.
  std::size_t n = 400;
  std::size_t extra_capacity = 80;

  /// Generate steps until the trace holds at least this many operations
  /// (sum of batch sizes).
  std::uint64_t target_ops = 1000;

  /// Upper bound on one batch's operation count; sizes are skewed toward
  /// small batches with occasional bursts up to the cap.
  std::size_t max_batch = 64;

  /// 0 = derive a worker count in [1, 8] from the seed.
  unsigned num_workers = 0;

  /// Shape index into parct::test::kShapes; -1 = derive from the seed.
  int shape = -1;
};

/// Sees every non-empty candidate batch the generators produce, in order,
/// with forest::check_change_set's verdict against the forest generated so
/// far: valid candidates become the trace's steps, invalid ones are
/// discarded.
using CandidateObserver =
    std::function<void(const forest::ChangeSet& candidate, bool valid)>;

/// Deterministically expands `config` into a full trace.
Trace generate_trace(const WorkloadConfig& config,
                     const CandidateObserver& observe = {});

}  // namespace parct::harness
