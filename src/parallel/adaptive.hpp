// Size-adaptive execution for change propagation: below a fixed cutover
// the frontier runs inline on the calling thread with zero scheduler
// interaction (no task pushes, no grain computation, no steal traffic).
//
// Why: the update bound O(m log((n+m)/m)) means small batches touch tiny
// per-round frontiers, where fork/join scaffolding dominates the actual
// propagation work ("Parallel Batch-dynamic Trees via Change Propagation",
// Acar et al. 2020, makes the same granularity-control observation). The
// cutover is a set_serial_cutover override when one is set (the CLI /
// harness `--serial-cutover N` plumbing; 0 means always-parallel, SIZE_MAX
// always-serial), else the constant 1024 — the same for every pool size
// and every pool start.
//
// Race-detection contract: an active SP-bags session takes precedence over
// the cutover — adaptive_for and AdaptivePhase then defer to the regular
// parallel constructs, which model the full logical fork tree (serially,
// at grain 1). The fast path therefore never hides an access from the
// detector: either the session is active and the parallel shape is taken,
// or it is not and the inline loop runs the same annotated body. Workspace
// lease nonces are likewise untouched — sub-cutover phases reach the
// primitives' sequential paths (par::sequential_mode()), the same ones a
// 1-worker pool exercises, which the equivalence suites pin against the
// parallel paths.
#pragma once

#include <cstddef>

#include "parallel/parallel_for.hpp"

namespace parct::par {

/// The active serial cutover: loops/phases over at most this many elements
/// run inline. 0 disables the fast path entirely; SIZE_MAX forces it.
std::size_t serial_cutover();

/// Pins the cutover in place of the built-in 1024. Used by parct_cli /
/// harness RunOptions.
void set_serial_cutover(std::size_t cutover);

/// Drops a set_serial_cutover override; the built-in 1024 applies again.
void clear_serial_cutover();

/// True if a phase over `n` elements should run inline on the calling
/// thread. Never true under an active SP-bags session (the detector needs
/// the parallel shape).
inline bool adaptive_serial(std::size_t n) {
  return !race_detect_forced() && n <= serial_cutover();
}

/// parallel_for with the sub-cutover fast path: below the cutover (or under
/// an enclosing SerialScope) the body runs as a plain loop with zero
/// scheduler interaction; above it, defers to parallel_for unchanged.
/// Under an active detection session always defers (grain-1 fork-tree
/// modeling).
template <typename F>
void adaptive_for(std::size_t lo, std::size_t hi, const F& f,
                  std::size_t grain = 0) {
  if (hi <= lo) return;
  if (race_detect_forced()) {
    parallel_for(lo, hi, f, grain);
    return;
  }
  if (scheduler::serial_forced() || hi - lo <= serial_cutover()) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  parallel_for(lo, hi, f, grain);
}

/// RAII: one serial-vs-parallel decision for a whole phase (a propagation
/// round, a contraction round). When the frontier is below the cutover the
/// scope forces serial execution on the calling thread for its extent —
/// every nested parallel_for / fork2join / *_into primitive degenerates to
/// its sequential path without touching the pool. Unlike
/// scheduler::SerialScope this does not fire the kSerialHandoff fault site:
/// the phase never leaves the calling thread, so there is no handoff to
/// perturb (and a chaos stall per sub-cutover round would be pure noise).
class AdaptivePhase {
 public:
  explicit AdaptivePhase(std::size_t frontier)
      : serial_(adaptive_serial(frontier)) {
    if (serial_) scheduler::detail::enter_serial();
  }
  ~AdaptivePhase() {
    if (serial_) scheduler::detail::exit_serial();
  }
  AdaptivePhase(const AdaptivePhase&) = delete;
  AdaptivePhase& operator=(const AdaptivePhase&) = delete;

  /// True if this phase chose the inline serial path (telemetry:
  /// UpdateStats/ConstructStats::chose_serial).
  bool serial() const { return serial_; }

 private:
  bool serial_;
};

}  // namespace parct::par
