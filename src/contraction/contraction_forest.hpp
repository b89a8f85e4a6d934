// ContractionForest: the contraction data structure (P, C, D) of paper
// §2.3, plus the per-round coin schedule that drove (and will re-drive) the
// contraction. Built by `construct` (construct.hpp) and edited in place by
// `DynamicUpdater` (dynamic_update.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/annotations.hpp"
#include "contraction/round_record.hpp"
#include "forest/forest.hpp"
#include "forest/types.hpp"
#include "hashing/coin_flips.hpp"

namespace parct::contract {

class ContractionForest {
 public:
  ContractionForest(std::size_t capacity, int degree_bound,
                    std::uint64_t seed);

  std::size_t capacity() const { return history_.size(); }
  int degree_bound() const { return degree_bound_; }

  hashing::CoinSchedule& coins() { return coins_; }
  const hashing::CoinSchedule& coins() const { return coins_; }
  std::uint64_t seed() const { return coins_.master_seed(); }

  /// Grows the vertex universe (new ids start absent, duration 0).
  void ensure_capacity(std::size_t capacity);

  // --- per-vertex accessors -------------------------------------------

  /// D[v]: rounds alive; 0 = absent/dead-from-start. During a dynamic
  /// update this holds the *old* duration until the vertex is dead in both
  /// the old and new forests (the algorithm needs the old value; see
  /// dynamic_update.cpp).
  std::uint32_t duration(VertexId v) const {
    PARCT_SHADOW_READ(analysis::duration_cell(shadow_id(), v));
    return history_[v].duration;
  }
  void set_duration(VertexId v, std::uint32_t d) {
    PARCT_SHADOW_WRITE(analysis::duration_cell(shadow_id(), v));
    history_[v].duration = d;
  }

  const RoundRecord& record(std::uint32_t round, VertexId v) const {
    // Indexing the rounds vector races with a concurrent ensure_round
    // growing it; model the vector itself as one shadow cell. The
    // caller annotates the record *fields* it actually touches.
    PARCT_SHADOW_READ(analysis::record_rounds_cell(shadow_id(), v));
    return history_[v].rounds[round];
  }
  RoundRecord& record_mut(std::uint32_t round, VertexId v) {
    PARCT_SHADOW_READ(analysis::record_rounds_cell(shadow_id(), v));
    return history_[v].rounds[round];
  }

  /// Guarantees v's rounds vector covers index `round`. Single-writer per
  /// vertex: safe from parallel loops where each iteration owns one vertex.
  void ensure_round(VertexId v, std::uint32_t round) {
    auto& rounds = history_[v].rounds;
    if (rounds.size() <= round) {
      PARCT_SHADOW_WRITE(analysis::record_rounds_cell(shadow_id(), v));
      rounds.resize(round + 1);
    } else {
      PARCT_SHADOW_READ(analysis::record_rounds_cell(shadow_id(), v));
    }
  }

  /// Drops records at indices >= duration(v) (bookkeeping after a vertex
  /// dies earlier in the new forest than in the old one).
  void truncate_to_duration(VertexId v) {
    PARCT_SHADOW_READ(analysis::duration_cell(shadow_id(), v));
    PARCT_SHADOW_WRITE(analysis::record_rounds_cell(shadow_id(), v));
    history_[v].rounds.resize(history_[v].duration);
  }

  // --- coin flips and contraction predicates (paper Fig. 2) ------------

  bool heads(std::uint32_t round, VertexId v) const {
    return coins_.heads(round, v);
  }

  /// How v contracts in `round`, judged from the current round-`round`
  /// records. The caller guarantees v is alive in that round.
  Kind classify(std::uint32_t round, VertexId v) const {
    PARCT_SHADOW_READ_REC(shadow_id(), v, round);
    const RoundRecord& r = record(round, v);
    if (children_empty(r.children)) {
      return r.parent == v ? Kind::kFinalize : Kind::kRake;
    }
    const VertexId u = only_child(r.children);
    if (u != kNoVertex) {
      PARCT_SHADOW_READ_CHILDREN(shadow_id(), u, round);
    }
    // Coin flips are a pure function of (seed, round, v): no shadow cells.
    if (u != kNoVertex && !children_empty(record(round, u).children) &&
        !heads(round, r.parent) && heads(round, v)) {
      return Kind::kCompress;
    }
    return Kind::kSurvive;
  }

  // --- whole-structure operations --------------------------------------

  /// Copies `f` into the round-0 records (slots preserved) and resets all
  /// durations (present vertices get duration 0 too; `construct` sets them
  /// as vertices die).
  void init_from_forest(const forest::Forest& f);

  /// Number of contraction rounds: max duration over all vertices.
  /// O(capacity) — a diagnostic, not for inner loops.
  std::uint32_t num_rounds() const;

  /// Materializes the round-0 forest (vertices with duration > 0). Child
  /// slot assignments may differ from the original input forest. O(n).
  forest::Forest extract_forest() const;

  /// Total round records currently stored (the O(n) space of §4). O(n).
  std::size_t total_records() const;

#if PARCT_RACE_DETECT
  /// Process-unique id namespacing this structure's shadow cells, so the
  /// race detector never aliases cells of distinct structures (e.g. the
  /// live structure vs a from-scratch oracle).
  std::uint32_t shadow_id() const { return shadow_id_; }
#else
  static constexpr std::uint32_t shadow_id() { return 0; }
#endif

 private:
  int degree_bound_;
  hashing::CoinSchedule coins_;
  std::vector<VertexHistory> history_;
#if PARCT_RACE_DETECT
  std::uint32_t shadow_id_ = analysis::spbags::new_structure_id();
#endif
};

/// Structure equality up to child-slot layout: equal durations and, for
/// every vertex and round < duration, equal parent and equal child *sets*.
/// Capacities may differ as long as extra vertices have duration 0.
/// This is the paper's behavioural-equivalence notion: a dynamic update
/// must leave the structure structurally_equal to a from-scratch
/// construction on the edited forest with the same coin schedule.
bool structurally_equal(const ContractionForest& a,
                        const ContractionForest& b);

/// First structural difference between `a` and `b` under the
/// structurally_equal notion, as a human-readable description — or nullopt
/// if the structures are equal. Used by equivalence tests and the
/// differential harness to report *where* a dynamic update diverged from
/// the from-scratch oracle.
std::optional<std::string> structural_diff(const ContractionForest& a,
                                           const ContractionForest& b);

}  // namespace parct::contract
