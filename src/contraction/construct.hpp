// The construction algorithm (paper §2.4, Fig. 1): run Miller-Reif
// randomized tree contraction on the input forest and record every round
// into the contraction data structure.
#pragma once

#include <cstdint>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "contraction/hooks.hpp"
#include "contraction/telemetry.hpp"
#include "forest/forest.hpp"
#include "primitives/workspace.hpp"

namespace parct::contract {

/// Phases of one RandomizedContract round (see construct.cpp). Indexes
/// ConstructStats::phase_seconds.
enum ConstructPhase : unsigned {
  kPhaseClassify = 0,  // A: contraction decisions
  kPhaseAllocate,      // B: blank round-(i+1) survivor records
  kPhasePromoteEdges,  // C: PromoteEdges
  kPhaseCompact,       // D: pack the live set
  kPhaseConstructSerial,  // whole-round time of sub-cutover serial rounds
  kNumConstructPhases
};

struct ConstructStats {
  std::uint32_t rounds = 0;
  /// Sum over rounds of |V^i| — the algorithm's total work measure
  /// (Theorem 1: O(n) in expectation).
  std::uint64_t total_live = 0;
  /// |V^i| per round (for the geometric-decay property tests, Lemma 5).
  std::vector<std::uint32_t> live_per_round;
  /// Rounds whose live set was below the adaptive serial cutover and ran
  /// inline (the late contraction tail; par::AdaptivePhase).
  std::uint64_t chose_serial = 0;

  // --- telemetry (see contraction/telemetry.hpp) ---
  /// Wall-clock seconds per phase, summed over rounds. Index by
  /// ConstructPhase.
  double phase_seconds[kNumConstructPhases] = {};
  /// Wall-clock seconds of the whole construct().
  double total_seconds = 0.0;

  // --- allocation discipline (always on; see docs/PERFORMANCE.md) ---
  /// Workspace activity of this construct(): pool hits vs heap misses for
  /// the per-round scratch, plus capacity growths of the reused live-set
  /// buffers. A construct() over a warm workspace has ws_misses == 0.
  std::uint64_t ws_acquires = 0;
  std::uint64_t ws_hits = 0;
  std::uint64_t ws_misses = 0;
  std::uint64_t ws_bytes_allocated = 0;
  std::uint64_t ws_container_growths = 0;
  std::uint64_t ws_container_bytes = 0;
};

/// Runs ForestContraction(V, E): initializes `c` from `f` (round 0) and
/// contracts until every vertex is dead, filling P, C and D. Uses the coin
/// schedule already attached to `c`, so the result is deterministic in
/// (f, c.seed()). Parallelized over the live set each round.
///
/// Per-round scratch (the compaction's block counts, the live-set double
/// buffer's growth tracking) comes from `workspace` when provided; callers
/// that construct repeatedly should pass a long-lived Workspace so later
/// runs reuse the pooled blocks (ws_misses == 0). With the default nullptr
/// a function-local arena is used and dropped on return.
ConstructStats construct(ContractionForest& c, const forest::Forest& f,
                         EventHooks* hooks = nullptr,
                         Workspace* workspace = nullptr);

/// Fires, from the records of a constructed or updated `c` alone, every
/// event `construct` would fire on its round-0 forest: on_begin, then round
/// by round over the live set, on_vertex_persist and on_edge_persist for
/// survivors and on_finalize, on_rake or on_compress at each death. Writes
/// nothing to `c`. A value layer rebuilds by resetting its histories to
/// their round-0 values and replaying. O(total records).
void replay(const ContractionForest& c, EventHooks& hooks);

}  // namespace parct::contract
