// Dynamic subtree aggregates over the contraction structure — the
// signature RC-tree query [2, 4]: every vertex carries a weight from a
// commutative monoid, and subtree_sum(v) returns the combined weight of
// v and all its descendants in O(log n) expected time, staying correct
// under batched structural updates.
//
// Two value histories are maintained per vertex through the rounds:
//   S[v][i]  — the weight absorbed into v by round i: v's own weight plus
//              every subtree raked into v (with its carry) so far;
//   C[v][i]  — the carry on v's parent edge: the accumulated weight of
//              vertices that compressed away strictly between v and its
//              current round-i parent.
// Maintenance (driven by the contraction event hooks):
//   survivor v:        S[v][i+1] = S[v][i] (+) sum over children c that
//                      rake this round of (S[c][i] (+) C[c][i])
//   edge persists:     C[v][i+1] = C[v][i]
//   m compresses(u,p): C[u][i+1] = C[u][i] (+) S[m][i] (+) C[m][i]
// Query: walk v's death chain; a rake/finalize death means everything
// below was absorbed (add S); a compress death adds S plus the carry of
// the remaining child's edge and recurses into that child (which dies
// strictly later, so the chain has O(log n) expected length).
//
// Stage weights with stage_vertex_weight() before construction (and for
// V+ vertices before the update that adds them). Changing the weight of
// an existing vertex requires rebuild() (vertex weights, unlike edge
// re-insertions, have no structural event to ride on).
#pragma once

#include <cstdint>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "contraction/hooks.hpp"
#include "parallel/parallel_for.hpp"

namespace parct::rc {

template <typename T, typename Combine>
class SubtreeAggregate final : public contract::EventHooks {
 public:
  SubtreeAggregate(const contract::ContractionForest& c, T identity,
                   Combine combine = Combine{})
      : c_(c), identity_(identity), combine_(combine),
        s_(c.capacity()), carry_(c.capacity()) {}

  /// Sets v's round-0 weight. Call before construct / the update adding v.
  void stage_vertex_weight(VertexId v, const T& w) {
    if (s_.size() <= v) {
      s_.resize(static_cast<std::size_t>(v) + 1);
      carry_.resize(static_cast<std::size_t>(v) + 1);
    }
    if (s_[v].empty()) s_[v].resize(1, identity_);
    s_[v][0] = w;
  }

  /// Combined weight of v and all its descendants. O(log n) expected.
  T subtree_sum(VertexId v) const {
    T acc = identity_;
    VertexId x = v;
    for (;;) {
      const std::uint32_t d = c_.duration(x);
      const contract::RoundRecord& last = c_.record(d - 1, x);
      if (children_empty(last.children)) {
        // Rake or finalize: everything below x has been absorbed.
        return combine_(acc, at(s_[x], d - 1));
      }
      // Compress: count x's accumulator plus the vertices compressed away
      // between its remaining child and x, then continue below the child.
      const VertexId u = only_child(last.children);
      acc = combine_(combine_(acc, at(s_[x], d - 1)), at(carry_[u], d - 1));
      x = u;
    }
  }

  /// Total weight of v's whole tree (subtree of its root).
  T tree_sum(VertexId v) const {
    VertexId x = v;
    for (;;) {
      const std::uint32_t d = c_.duration(x);
      const contract::RoundRecord& last = c_.record(d - 1, x);
      if (last.parent == x && children_empty(last.children)) {
        return at(s_[x], d - 1);  // the finalizer absorbed the whole tree
      }
      x = last.parent;
    }
  }

  /// Recomputes both value histories from the round-0 weights by
  /// replaying the recorded rounds. O(total records).
  void rebuild() {
    const std::size_t cap = c_.capacity();
    s_.resize(cap);
    carry_.resize(cap);
    std::uint32_t max_d = 0;
    for (VertexId v = 0; v < cap; ++v) {
      const std::uint32_t d = c_.duration(v);
      max_d = std::max(max_d, d);
      if (d == 0) continue;
      const T base = s_[v].empty() ? identity_ : s_[v][0];
      s_[v].assign(d, identity_);
      s_[v][0] = base;
      carry_[v].assign(d, identity_);
    }
    if (max_d == 0) return;
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
        // S: fold children that raked in round i-1.
        T acc = s_[v][i - 1];
        for (VertexId ch : c_.record(i - 1, v).children) {
          if (ch == kNoVertex) continue;
          if (children_empty(c_.record(i - 1, ch).children) &&
              c_.duration(ch) == i) {
            acc = combine_(acc, combine_(s_[ch][i - 1],
                                         carry_[ch][i - 1]));
          }
        }
        // parct-lint: allow(shadow-write) reason: vertex-own round-i slot
        s_[v][i] = acc;
        // C: copy, or fold a compressed parent in.
        const VertexId p_now = c_.record(i, v).parent;
        if (p_now == v) return;
        const VertexId p_before = c_.record(i - 1, v).parent;
        if (p_before == p_now) {
          // parct-lint: allow(shadow-write) reason: vertex-own round-i slot
          carry_[v][i] = carry_[v][i - 1];
        } else {
          // parct-lint: allow(shadow-write) reason: vertex-own round-i slot
          carry_[v][i] =
              combine_(carry_[v][i - 1],
                       combine_(s_[p_before][i - 1],
                                carry_[p_before][i - 1]));
        }
      });
    }
  }

  // --- EventHooks -------------------------------------------------------

  void on_begin(std::size_t capacity) override {
    if (s_.size() < capacity) {
      s_.resize(capacity);
      carry_.resize(capacity);
    }
  }

  void on_vertex_persist(std::uint32_t round, VertexId v) override {
    const contract::RoundRecord& r = c_.record(round, v);
    T acc = at(s_[v], round);
    for (VertexId ch : r.children) {
      if (ch == kNoVertex) continue;
      // A non-root leaf child rakes this round (deterministically).
      if (children_empty(c_.record(round, ch).children)) {
        acc = combine_(acc,
                       combine_(at(s_[ch], round), at(carry_[ch], round)));
      }
    }
    ensure(s_[v], round + 1);
    s_[v][round + 1] = acc;
  }

  void on_edge_persist(std::uint32_t round, VertexId v,
                       VertexId /*parent*/) override {
    ensure(carry_[v], round + 1);
    carry_[v][round + 1] = at(carry_[v], round);
  }

  void on_compress(std::uint32_t round, VertexId m, VertexId child,
                   VertexId /*parent*/) override {
    ensure(carry_[child], round + 1);
    carry_[child][round + 1] =
        combine_(at(carry_[child], round),
                 combine_(at(s_[m], round), at(carry_[m], round)));
  }

 private:
  // Histories grow lazily; a missing slot reads as identity (e.g. the
  // round-0 carry, or weights never staged).
  const T& at(const std::vector<T>& h, std::uint32_t i) const {
    return i < h.size() ? h[i] : identity_;
  }
  void ensure(std::vector<T>& h, std::uint32_t round) {
    if (h.size() <= round) h.resize(round + 1, identity_);
  }

  const contract::ContractionForest& c_;
  T identity_;
  Combine combine_;
  std::vector<std::vector<T>> s_;      // S[v][i]
  std::vector<std::vector<T>> carry_;  // C[v][i]
};

}  // namespace parct::rc
