// Dynamic path-to-root aggregates over the contraction structure — the
// RC-tree capability of Acar et al. [2, 4] realized on the paper's
// parallel-dynamic structure.
//
// Every edge (v -> parent) carries a value from a monoid (T, combine,
// identity); `path_to_root(v)` returns the bottom-to-top combination of
// the edge values on the path from v to its tree root, in O(log n)
// expected time. Typical instantiations: + for total length/latency, max
// for bottleneck edges, min for capacities.
//
// How it works: vals[v][i] is the aggregate of the *original* edges
// covered by the round-i contracted edge (v -> P[i][v]). Rounds maintain
// it with two rules, driven by the contraction event hooks:
//   * the edge persists:            vals[v][i+1] = vals[v][i]
//   * parent m compresses (u-m-p):  vals[u][i+1] = vals[u][i] (+) vals[m][i]
// At v's death, vals[v][D-1] therefore aggregates the whole original path
// from v to the vertex it merges into — so climbing the representative
// chain (O(log n) hops) and combining those values yields the full path
// to the root. The same hooks fire during dynamic updates for exactly the
// re-executed region, so the value layer stays consistent under batched
// edge/vertex changes at no extra asymptotic cost.
//
// Weight changes: a weight belongs to a round-0 edge. Stage weights for
// edges *inserted by a batch* with stage_edge_weight() BEFORE apply().
// To change the weight of an existing edge, delete and re-insert it in a
// batch (the re-execution repropagates values), or call rebuild().
#pragma once

#include <cstdint>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "contraction/hooks.hpp"
#include "parallel/parallel_for.hpp"

namespace parct::rc {

template <typename T, typename Combine>
class PathAggregate final : public contract::EventHooks {
 public:
  /// Binds to `c` (not yet constructed or already constructed — call
  /// rebuild() in the latter case after staging weights). Pass `*this` as
  /// the hooks argument of contract::construct and DynamicUpdater::apply.
  PathAggregate(const contract::ContractionForest& c, T identity,
                Combine combine = Combine{})
      : c_(c), identity_(identity), combine_(combine),
        vals_(c.capacity()) {}

  /// Sets the round-0 weight of v's parent edge. Call before the
  /// construction / the update that creates the edge.
  void stage_edge_weight(VertexId v, const T& w) {
    if (vals_.size() <= v) vals_.resize(static_cast<std::size_t>(v) + 1);
    auto& h = vals_[v];
    if (h.empty()) h.resize(1, identity_);
    h[0] = w;
  }

  const T& edge_weight(VertexId v) const { return vals_[v][0]; }

  /// The structure the aggregate is bound to (validity checks in the batch
  /// query layer) and the monoid identity (the defined result for invalid
  /// ids there).
  const contract::ContractionForest& structure() const { return c_; }
  const T& identity() const { return identity_; }

  /// Aggregate of edge values from v up to its tree root (identity for
  /// roots). O(log n) expected.
  T path_to_root(VertexId v) const {
    T acc = identity_;
    VertexId x = v;
    for (;;) {
      const std::uint32_t d = c_.duration(x);
      const contract::RoundRecord& last = c_.record(d - 1, x);
      if (last.parent == x) break;  // finalize: reached the root
      acc = combine_(acc, vals_[x][d - 1]);
      x = last.parent;
    }
    return acc;
  }

  /// Recomputes every per-round value from the round-0 weights by
  /// replaying the recorded rounds. O(total records).
  void rebuild() {
    const std::size_t cap = c_.capacity();
    vals_.resize(cap);
    std::uint32_t max_d = 0;
    for (VertexId v = 0; v < cap; ++v) {
      const std::uint32_t d = c_.duration(v);
      max_d = std::max(max_d, d);
      auto& h = vals_[v];
      if (d == 0) continue;
      const T base = h.empty() ? identity_ : h[0];
      h.assign(d, identity_);
      h[0] = base;
    }
    if (max_d == 0) return;
    // Per-round lists of vertices alive in that round (O(total records)).
    std::vector<std::vector<VertexId>> alive_at(max_d);
    for (VertexId v = 0; v < cap; ++v) {
      for (std::uint32_t i = 1; i < c_.duration(v); ++i) {
        alive_at[i].push_back(v);
      }
    }
    for (std::uint32_t i = 1; i < max_d; ++i) {
      // Within a round, vertices only read round-(i-1) values and write
      // their own round-i slot: parallel-safe. The rebuild runs once per
      // construction, and keying every slot would multiply detector
      // traffic on the O(n log n) table for a disjointness the indices
      // show.
      par::parallel_for(0, alive_at[i].size(), [&](std::size_t k) {
        const VertexId v = alive_at[i][k];
        const VertexId p_now = c_.record(i, v).parent;
        if (p_now == v) return;  // root: no edge value
        const VertexId p_before = c_.record(i - 1, v).parent;
        if (p_before == p_now) {
          // parct-lint: allow(shadow-write) reason: vertex-own round-i slot
          vals_[v][i] = vals_[v][i - 1];
        } else {
          // p_before compressed between v and p_now in round i-1.
          // parct-lint: allow(shadow-write) reason: vertex-own round-i slot
          vals_[v][i] =
              combine_(vals_[v][i - 1], vals_[p_before][i - 1]);
        }
      });
    }
  }

  // --- EventHooks (called by construct / DynamicUpdater) ---------------

  void on_begin(std::size_t capacity) override {
    if (vals_.size() < capacity) vals_.resize(capacity);
  }

  void on_edge_persist(std::uint32_t round, VertexId v,
                       VertexId /*parent*/) override {
    ensure(v, round + 1);
    vals_[v][round + 1] = vals_[v][round];
  }

  void on_compress(std::uint32_t round, VertexId m, VertexId child,
                   VertexId /*parent*/) override {
    ensure(child, round + 1);
    vals_[child][round + 1] =
        combine_(vals_[child][round], vals_[m][round]);
  }

 private:
  void ensure(VertexId v, std::uint32_t round) {
    // The outer vector was sized by on_begin; growing the per-vertex
    // history here is single-writer (see the hook contract).
    auto& h = vals_[v];
    if (h.size() <= round) h.resize(round + 1, identity_);
  }

  const contract::ContractionForest& c_;
  T identity_;
  Combine combine_;
  std::vector<std::vector<T>> vals_;
};

struct PathPlus {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};
struct PathMax {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a > b ? a : b;
  }
};

}  // namespace parct::rc
