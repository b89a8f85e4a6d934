// Per-tree (connected component) aggregation over the contraction
// structure: each vertex carries a weight from a commutative group, and
// TreeAggregate maintains, at every tree's root, the total weight of the
// tree. This answers "weight/size of the component containing v" in
// O(log n) expected time, and supports O(log n) single-vertex weight
// updates by pushing a delta up the representative chain.
//
// Structural updates: after a DynamicUpdater::apply, the accumulators are
// repaired *incrementally* via prepare_update/apply_update with the
// updater's touched() set — work proportional to the affected region
// times O(log n), not O(n). The full
// rebuild() remains as the from-scratch oracle and is what the
// incremental path is tested against.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "primitives/bytes.hpp"
#include "primitives/counting.hpp"
#include "rc/rc_forest.hpp"

namespace parct::rc {

/// `T` must form a commutative group under `+`/`-` with `T{}` as identity
/// (e.g. integers, doubles, vectors of counters).
///
/// Invariant: acc[v] = weight[v] + sum of acc[u] over all u that merged
/// (raked/compressed) into v; additionally acc[v] == weight[v] for every
/// absent vertex, so ids can leave and re-enter the forest across updates.
template <typename T>
class TreeAggregate {
 public:
  /// Weights default to T{}; set them with set_weight before use or pass a
  /// full vector.
  explicit TreeAggregate(const RCForest& rc) : rc_(rc) {
    weight_.assign(rc.structure().capacity(), T{});
    rebuild();
  }
  TreeAggregate(const RCForest& rc, std::vector<T> weights)
      : rc_(rc), weight_(std::move(weights)) {
    weight_.resize(rc.structure().capacity());
    rebuild();
  }

  /// The forest the aggregate is bound to — lets query entry points check
  /// they were handed a matching (forest, aggregate) pair.
  const RCForest& forest() const { return rc_; }

  const T& weight(VertexId v) const { return weight_[v]; }

  /// The full weight / accumulator tables — what the serving layer copies
  /// into an immutable snapshot (service/snapshot.hpp). acc[root(v)] is
  /// the total weight of v's tree.
  const std::vector<T>& weights() const { return weight_; }
  const std::vector<T>& accumulators() const { return acc_; }

  /// Total weight of the tree containing v. O(log n) expected.
  T tree_weight(VertexId v) const { return acc_[rc_.root(v)]; }

  /// Changes v's weight and repairs all aggregates on its representative
  /// chain. O(log n) expected. Not between prepare_update and
  /// apply_update.
  void set_weight(VertexId v, const T& w) {
    assert(!prepared_ && "set_weight during a structural update window");
    const T delta = w - weight_[v];
    weight_[v] = w;
    acc_[v] = acc_[v] + delta;
    VertexId u = rc_.present(v) ? rc_.representative(v) : kNoVertex;
    while (u != kNoVertex) {
      acc_[u] = acc_[u] + delta;
      u = rc_.representative(u);
    }
  }

  // --- structural updates ----------------------------------------------

  /// First half of an incremental repair. Call with the
  /// DynamicUpdater::touched() set of an apply (or a superset)
  /// BEFORE RCForest::refresh overwrites the events: the old
  /// representatives of the touched vertices are the seeds whose
  /// accumulators lose contributions.
  void prepare_update(const std::vector<VertexId>& touched) {
    const std::size_t cap = rc_.structure().capacity();
    if (touched_mark_.size() < cap) {
      touched_mark_.resize(cap, 0);
      old_rep_.resize(cap, kNoVertex);
    }
    ++touched_epoch_;
    seeds_.clear();
    for (VertexId t : touched) {
      if (t >= cap || touched_mark_[t] == touched_epoch_) continue;
      touched_mark_[t] = touched_epoch_;
      old_rep_[t] = rc_.present(t) ? rc_.representative(t) : kNoVertex;
      seeds_.push_back(t);
    }
    prepared_ = true;
  }

  /// Second half: call AFTER RCForest::refresh. Recomputes accumulators
  /// over the affected region only — the upward closure, under the new
  /// representative chains, of the touched vertices and their old
  /// representatives. Expected O(|touched| log n) work; equivalent to a
  /// full rebuild() (asserted in tests/tree_aggregate_test.cpp).
  void apply_update() {
    assert(prepared_ && "apply_update without a matching prepare_update");
    prepared_ = false;
    const auto& c = rc_.structure();
    const std::size_t cap = c.capacity();
    if (weight_.size() < cap) weight_.resize(cap);
    if (acc_.size() < cap) acc_.resize(cap);  // new ids: acc == weight == T{}
    if (region_mark_.size() < cap) region_mark_.resize(cap, 0);
    if (keep_.size() < cap) keep_.resize(cap);
    ++region_epoch_;
    region_.clear();

    // The affected region S: new-forest representative chains from every
    // seed. Chains are functional, so stopping at an already-marked vertex
    // still leaves S upward-closed under the new representatives.
    auto add_chain = [&](VertexId v) {
      while (v != kNoVertex && region_mark_[v] != region_epoch_) {
        region_mark_[v] = region_epoch_;
        region_.push_back(v);
        v = rc_.present(v) ? rc_.representative(v) : kNoVertex;
      }
    };
    for (VertexId s : seeds_) {
      add_chain(s);
      add_chain(old_rep_[s]);
    }

    // keep[v]: the contribution of v's merge-children *outside* S — their
    // accumulators and targets are unchanged (any child whose value or
    // target changed would force its target into S), so their share of
    // acc[v] carries over verbatim: old acc minus v's own weight minus the
    // old contributions of the in-S children.
    for (VertexId v : region_) keep_[v] = acc_[v] - weight_[v];
    for (VertexId u : region_) {
      const VertexId p = touched_mark_[u] == touched_epoch_
                             ? old_rep_[u]
                             : (rc_.present(u) ? rc_.representative(u)
                                               : kNoVertex);
      if (p != kNoVertex && region_mark_[p] == region_epoch_) {
        keep_[p] = keep_[p] - acc_[u];
      }
    }

    // Fold bottom-up in new-death-round order (merge targets die strictly
    // later, so every acc[u] is final before it lands in its target). The
    // region is O(|touched| log n) expected — a serial sort is fine.
    std::sort(region_.begin(), region_.end(), [&](VertexId a, VertexId b) {
      return c.duration(a) < c.duration(b);
    });
    for (VertexId v : region_) acc_[v] = weight_[v] + keep_[v];
    for (VertexId u : region_) {
      const VertexId p =
          rc_.present(u) ? rc_.representative(u) : kNoVertex;
      if (p != kNoVertex) acc_[p] = acc_[p] + acc_[u];  // p in S by closure
    }
  }

  /// Vertices whose accumulators the last apply_update recomputed —
  /// exposed for tests and affected-region telemetry.
  const std::vector<VertexId>& last_region() const { return region_; }

  /// Recomputes all accumulators from scratch. O(n + R) where R is the
  /// number of rounds — the oracle for the incremental path, and the
  /// fallback when no touched set is available.
  ///
  /// Invariant rebuilt: acc[v] = weight[v] + sum of acc[u] over all u that
  /// merged (raked/compressed) into v. Processing vertices in increasing
  /// death round makes every acc[u] final before it is folded into its
  /// target (merge targets die strictly later).
  void rebuild() {
    const auto& c = rc_.structure();
    const std::size_t cap = c.capacity();
    weight_.resize(cap);
    acc_ = weight_;

    // Stable counting sort of all vertices by death round (absent vertices
    // land in bucket 0 and are skipped during folding).
    std::uint32_t max_d = 0;
    for (VertexId v = 0; v < cap; ++v) {
      max_d = std::max(max_d, c.duration(v));
    }
    std::vector<std::uint32_t> order = prim::counting_sort_indices(
        cap, [&](std::size_t v) { return c.duration(
                                      static_cast<VertexId>(v)); },
        max_d + 1);
    for (std::uint32_t v : order) {
      if (c.duration(v) == 0) continue;
      const VertexId target = rc_.representative(v);
      if (target != kNoVertex) acc_[target] = acc_[target] + acc_[v];
    }
  }

 private:
  const RCForest& rc_;
  std::vector<T> weight_;
  std::vector<T> acc_;

  // Incremental-repair scratch (epoch-stamped marks; capacity persists
  // across updates so the steady state allocates nothing).
  std::vector<std::uint64_t> touched_mark_;
  std::vector<std::uint64_t> region_mark_;
  std::vector<VertexId> old_rep_;
  std::vector<VertexId> seeds_;
  std::vector<VertexId> region_;
  std::vector<T> keep_;
  std::uint64_t touched_epoch_ = 0;
  std::uint64_t region_epoch_ = 0;
  bool prepared_ = false;
};

// --- (de)serialization --------------------------------------------------
//
// Only the weight table is stored: the accumulators are a pure function of
// (weights, structure), so a loaded table is bound to its forest through
// the TreeAggregate(rc, weights) constructor, which rebuilds them. This
// pairs with contract::save/load: a reloaded (structure, aggregate) pair
// serves queries and dynamic updates exactly like the original
// (tests/serialize_test.cpp round-trips this end to end).

namespace detail {
inline constexpr std::uint64_t kAggregateMagic =
    0x50415243'54414731ull;  // "PARCTAG1"
inline constexpr std::uint32_t kAggregateVersion = 1;
}  // namespace detail

/// Appends a raw weight table to `out` (little-endian hosts). T must be
/// trivially copyable — raw-byte image, like contract::save.
template <typename T>
void save_weight_table(const std::vector<T>& w, std::string& out) {
  prim::append_bytes(out, detail::kAggregateMagic);
  prim::append_bytes(out, detail::kAggregateVersion);
  prim::append_bytes(out, static_cast<std::uint32_t>(sizeof(T)));
  prim::append_bytes(out, static_cast<std::uint64_t>(w.size()));
  prim::append_bytes(out, w.data(), w.size());
}

/// Reads a weight table written by save_weight_table. `expected_size`
/// bounds the allocation: a table declaring a different size is rejected
/// before any weight bytes are read, so a corrupt header cannot drive a
/// huge allocation. Throws std::runtime_error on any mismatch/truncation.
template <typename T>
std::vector<T> load_weight_table(prim::ByteReader& in,
                                 std::uint64_t expected_size) {
  if (in.get<std::uint64_t>() != detail::kAggregateMagic) {
    throw std::runtime_error("parct::load_weight_table: bad magic");
  }
  if (in.get<std::uint32_t>() != detail::kAggregateVersion) {
    throw std::runtime_error("parct::load_weight_table: unsupported version");
  }
  if (in.get<std::uint32_t>() != sizeof(T)) {
    throw std::runtime_error("parct::load_weight_table: weight type mismatch");
  }
  const auto n = in.get<std::uint64_t>();
  if (n != expected_size) {
    throw std::runtime_error(
        "parct::load_weight_table: size does not match the bound forest");
  }
  in.require(n, sizeof(T));
  std::vector<T> w(static_cast<std::size_t>(n));
  in.get(w.data(), w.size());
  return w;
}

}  // namespace parct::rc
