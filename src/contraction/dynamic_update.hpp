// The dynamic update algorithm (paper §2.5, Figs. 3-4): change propagation
// over the contraction data structure. Applying a batch
// ((V-, E-), (V+, E+)) leaves the structure exactly as if the construction
// algorithm had been re-run from scratch on the edited forest with the same
// coin schedule — but does only O(m log((n+m)/m)) expected work (Thm. 2).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "contraction/hooks.hpp"
#include "contraction/telemetry.hpp"
#include "forest/change_set.hpp"
#include "primitives/workspace.hpp"

namespace parct::contract {

/// Phases of one apply(): the initial O(m) batch-application phase, then
/// A-G of each Propagate round (see dynamic_update.cpp). Indexes
/// UpdateStats::phase_seconds.
enum UpdatePhase : unsigned {
  kPhaseInitial = 0,  // apply batch to round 0, build L0/X0
  kPhaseMark,         // A: mark L / L-union-X, classify, old leaf statuses
  kPhaseNeighborhood, // B: build NL (claim-then-pack)
  kPhaseErase,        // C: erase round-(i+1) edges incident on affected
  kPhasePromote,      // D: re-promote edges over NL
  kPhaseSpread,       // E+F: new leaf statuses, build next round's L
  kPhaseX,            // G: X bookkeeping (sequential)
  kPhaseSerial,       // whole-round time of sub-cutover serial rounds
  kNumUpdatePhases
};

struct UpdateStats {
  /// Rounds of change propagation executed.
  std::uint32_t rounds = 0;
  /// |A^0| (paper Lemma 7 bounds this by 3m).
  std::uint64_t initial_affected = 0;
  /// Sum over rounds of |A^i| = |L| + |X| — the algorithm's work measure
  /// (Theorem 2: O(m log((n+m)/m)) in expectation).
  std::uint64_t total_affected = 0;
  /// max over rounds of |A^i| (paper Lemma 10: O(m) in expectation).
  std::uint64_t max_affected = 0;
  /// Sum over rounds of |NL| (affected vertices plus their neighbours).
  std::uint64_t total_neighborhood = 0;
  /// Adaptive-execution decisions that chose the inline serial path (the
  /// initial batch phase plus each propagation round makes one; see
  /// par::AdaptivePhase and docs/PERFORMANCE.md "Small-batch fast path").
  std::uint64_t chose_serial = 0;

  // --- telemetry (see contraction/telemetry.hpp and
  // docs/OBSERVABILITY.md) ---
  /// Wall-clock seconds per phase, summed over rounds. Index by UpdatePhase.
  double phase_seconds[kNumUpdatePhases] = {};
  /// Wall-clock seconds of the whole apply().
  double total_seconds = 0.0;

  // --- allocation discipline (always on — counters are bumped only on
  // the scratch acquire/release paths, a handful per phase; see
  // docs/PERFORMANCE.md "Memory discipline") ---
  /// Workspace activity of this apply(): scratch leases served from the
  /// pool (hits) vs heap-allocated (misses), fresh bytes, and capacity
  /// growths of the reused destination vectors. An allocation-free
  /// steady-state apply has ws_misses == 0 && ws_container_growths == 0.
  std::uint64_t ws_acquires = 0;
  std::uint64_t ws_hits = 0;
  std::uint64_t ws_misses = 0;
  std::uint64_t ws_bytes_allocated = 0;
  std::uint64_t ws_container_growths = 0;
  std::uint64_t ws_container_bytes = 0;
};

/// Applies batches of changes to a ContractionForest in place. Holds O(n)
/// scratch so that individual updates cost work proportional to the
/// affected region only — construct one updater per structure and reuse it
/// (the paper's implementation preallocates all memory, §4).
class DynamicUpdater {
 public:
  explicit DynamicUpdater(ContractionForest& c);

  DynamicUpdater(const DynamicUpdater&) = delete;
  DynamicUpdater& operator=(const DynamicUpdater&) = delete;

  /// ModifyContraction (paper Fig. 3). Preconditions as in the paper: V-
  /// present, V+ fresh, E- existing edges, E+ new edges between
  /// present-after-edit vertices, every edge incident to V- listed in E-,
  /// and the edited graph is a bounded-degree forest (use
  /// forest::check_change_set to verify). Not thread-safe with respect to
  /// concurrent reads of the structure.
  UpdateStats apply(const forest::ChangeSet& m, EventHooks* hooks = nullptr);

  /// The vertices whose contraction event (kind, death round, merge
  /// target) the last apply() may have changed, each once: every vertex
  /// of some round's L that contracts in the new forest (V+ included) and
  /// every V- vertex — the ones whose duration Phase G finalizes. By
  /// Lemma 2 any other vertex re-executes an unchanged event. This is the
  /// refresh set of RCForest::refresh and TreeAggregate::prepare_update.
  /// Reused across calls: valid until the next apply().
  const std::vector<VertexId>& touched() const { return touched_; }

  ContractionForest& structure() { return c_; }

 private:
  void grow_scratch();
  /// One round of Propagate (paper Fig. 4); consumes lset_/xset_ and
  /// replaces them with the next round's sets. serial_t0/serial_open carry
  /// one phase_seconds[kPhaseSerial] bracket across *consecutive* serial
  /// rounds: small updates whose every round is sub-cutover pay two clock
  /// reads total instead of two per round (apply() closes the bracket).
  void propagate(std::uint32_t i, EventHooks* hooks, UpdateStats& stats,
                 StatsTimePoint& serial_t0, bool& serial_open);

  /// assign(n, fill) with capacity growth recorded in the workspace stats,
  /// so the steady-state allocation check covers the claim buffers too.
  template <typename T>
  void assign_tracked(std::vector<T>& v, std::size_t n, const T& fill) {
    if (n > v.capacity()) {
      ws_.note_container_growth((n - v.capacity()) * sizeof(T));
    }
    v.assign(n, fill);
  }

  // claim_ is deliberately *not* shadow-instrumented: competing CAS claims
  // of one vertex are commutative (exactly one winner, and the resulting
  // claimed-set is schedule-independent), so they are not determinacy
  // races even though they contend. The detector instead checks what the
  // winners go on to write (cand_ slots, record cells).
  bool try_claim(VertexId v, std::uint64_t epoch) {
    std::uint64_t old = claim_[v].load(std::memory_order_relaxed);
    if (old == epoch) return false;
    return claim_[v].compare_exchange_strong(old, epoch,
                                             std::memory_order_relaxed);
  }
  bool claimed(VertexId v, std::uint64_t epoch) const {
    return claim_[v].load(std::memory_order_relaxed) == epoch;
  }

  bool in_l(VertexId v) const {
    PARCT_SHADOW_READ(
        analysis::scratch_cell(analysis::ShadowArray::kMarkL, v));
    return mark_l_[v] == epoch_l_;
  }
  /// v affected this round (in L or X) — the membership test of the erase
  /// phase: only edges incident on *affected* vertices are deleted; edges
  /// between unaffected vertices are identical in both forests (Lemma 1)
  /// and must be kept, since their (possibly unaffected, outside-NL)
  /// creators do not re-promote them.
  bool in_lx(VertexId v) const {
    PARCT_SHADOW_READ(
        analysis::scratch_cell(analysis::ShadowArray::kMarkLX, v));
    return mark_lx_[v] == epoch_lx_;
  }
  /// Contraction kind in the *new* forest this round; valid for any vertex
  /// alive in G at round i.
  Kind kind_of(std::uint32_t i, VertexId v) const {
    if (in_l(v)) {
      PARCT_SHADOW_READ(
          analysis::scratch_cell(analysis::ShadowArray::kStatusG, v));
      return static_cast<Kind>(status_g_[v]);
    }
    return c_.classify(i, v);
  }
  bool survives(std::uint32_t i, VertexId v) const {
    return kind_of(i, v) == Kind::kSurvive;
  }

  ContractionForest& c_;
  std::size_t scratch_cap_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> claim_;  // epoch stamps
  std::vector<std::uint64_t> mark_l_;                    // v in current L?
  std::vector<std::uint64_t> mark_lx_;                   // v in L or X?
  std::vector<std::uint8_t> status_g_;   // Kind of L members this round
  std::vector<std::uint8_t> old_leaf_;   // leaf status in F at round i+1
  std::uint64_t epoch_ = 0;
  std::uint64_t epoch_l_ = 0;
  std::uint64_t epoch_lx_ = 0;
  std::uint64_t epoch_nlx_ = 0;

  std::vector<VertexId> lset_;  // affected, alive in G this round
  std::vector<std::pair<VertexId, std::uint32_t>> xset_;  // (v, G-death)
  std::vector<VertexId> cand_;  // claim-then-pack candidate buffer

  // Reused round pipelines: every per-round set lives in a member whose
  // capacity carries over (swap, never move-assign, so both buffers keep
  // their storage), and all primitive scratch comes from ws_. After the
  // first batch warms the capacities, apply() performs zero heap
  // allocations on the hot path — tracked by the ws_* stats above and
  // enforced by the steady-state CTest (tests/workspace_test.cpp).
  Workspace ws_;                  // scratch arena for the *_into primitives
  std::vector<VertexId> nl_;      // NL of the current round
  std::vector<VertexId> next_l_;  // next round's L (swapped into lset_)
  std::vector<VertexId> flipped_; // parents of leaf-status flips (round 0)
  std::vector<Edge> inserts_;     // E+ sorted by parent (initial phase)
  std::vector<VertexId> touched_; // vertices finalized by Phase G
};

/// One-shot convenience wrapper (allocates O(n) scratch per call; prefer a
/// long-lived DynamicUpdater in performance-sensitive code).
UpdateStats modify_contraction(ContractionForest& c,
                               const forest::ChangeSet& m,
                               EventHooks* hooks = nullptr);

}  // namespace parct::contract
