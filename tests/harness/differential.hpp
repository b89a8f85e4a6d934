// The differential runner: executes a Trace against the contraction
// structure while mirroring the forest into every oracle we have, and
// cross-checks after each step:
//
//   * full (P, C, D) structural equality against a from-scratch
//     ForestContraction of the current forest with the SAME coin schedule
//     (the paper's keystone behavioural-equivalence property),
//   * Link-Cut Tree and Euler-Tour Tree baselines (roots, connectivity,
//     component sizes, subtree sums),
//   * path-to-root and subtree aggregates against brute-force walks of the
//     plain mirrored forest,
//   * an independent sequential re-simulation (contract::check_valid) at
//     the end of the run.
//
// Every run is deterministic in the Trace alone (including the scheduler
// configuration it carries), so a failing trace re-executes to the same
// failure — which is what makes shrinking and replay files possible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "harness/trace.hpp"

namespace parct::harness {

struct RunOptions {
  /// Run the from-scratch (P, C, D) equality check every k-th step (1 =
  /// every step; 0 = only at the end). The final step is always checked.
  int check_scratch_every = 4;
  /// Oracle query probes per step (roots, connectivity, sizes, path and
  /// subtree aggregates). 0 disables query checking.
  int queries_per_step = 8;
  /// Re-simulate the final structure with the independent sequential
  /// checker (contract::check_valid).
  bool validate_final = true;
  /// Run the whole trace under an SP-bags determinacy-race detector
  /// session (analysis/sp_bags.hpp): the run executes serially, every
  /// instrumented shared access is checked, and a detected race fails the
  /// run with the detector's two-site report. Requires a binary built with
  /// -DPARCT_RACE_DETECT=ON; otherwise the run fails immediately with an
  /// explanatory message.
  bool race_detect = false;
  /// Override the adaptive serial cutover (par::set_serial_cutover) for
  /// the duration of the run: 0 pins every frontier to the parallel path,
  /// SIZE_MAX pins the inline serial fast path, nullopt keeps the built-in
  /// 1024. The override is cleared when the run returns. Used by the
  /// equivalence suites to prove both execution paths produce identical
  /// structures (docs/PERFORMANCE.md "Small-batch fast path").
  std::optional<std::size_t> serial_cutover;
};

struct RunResult {
  bool ok = true;
  /// Step index the run failed at (-1 if ok).
  int failed_step = -1;
  /// Deterministic, human-readable failure description.
  std::string failure;

  // --- run statistics ---------------------------------------------------
  std::uint32_t steps_applied = 0;
  std::uint32_t steps_skipped = 0;  // batches invalid against the mirror
  std::uint64_t ops_applied = 0;

  bool failed() const { return !ok; }
};

/// Executes `t` (initializing the scheduler to the trace's worker count
/// and steal seed) and returns the outcome. Deterministic in `t`.
RunResult run_trace(const Trace& t, const RunOptions& opts = RunOptions{});

/// Writes `t` as a replay file named parct-replay-seed<master_seed>.txt in
/// $PARCT_REPLAY_DIR (or the working directory) and returns the path.
std::string dump_replay(const Trace& t);

}  // namespace parct::harness
