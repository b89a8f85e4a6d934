// Self-adjusting expression evaluation: the incremental counterpart of
// rc::ExpressionEvaluator. Instead of replaying the whole contraction
// (O(n)) after every change, this value layer rides the dynamic update's
// re-execution hooks, so a structural edit to the expression forest
// (grafting/pruning subexpressions) re-evaluates only the affected region
// — O(m log((n+m)/m)) expected, like the structural update itself.
//
// Node model (same as expression_eval.hpp): internal vertices are n-ary
// sums or products, leaves carry constants. Per vertex and round we keep
//   acc[v][i]  — partial fold of children already raked into v;
//   lin[v][i]  — the linear form a*x + b pending on v's parent edge
//                (compresses compose these, exactly as in the replay
//                evaluator).
// Changing a leaf *constant* has no structural event to ride on: use
// rebuild(), or delete+re-insert the leaf's edge in a batch.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "contraction/hooks.hpp"
#include "parallel/parallel_for.hpp"
#include "rc/expression_eval.hpp"  // Op, ExprNode

namespace parct::rc {

class IncrementalExpression final : public contract::EventHooks {
 public:
  explicit IncrementalExpression(const contract::ContractionForest& c)
      : c_(c), nodes_(c.capacity()), acc_(c.capacity()),
        lin_(c.capacity()) {}

  /// Declares vertex v's operator / leaf constant. Call before the
  /// construction (or the update that adds v).
  void stage_node(VertexId v, const ExprNode& node) {
    grow(static_cast<std::size_t>(v) + 1);
    nodes_[v] = node;
  }

  const ExprNode& node(VertexId v) const { return nodes_[v]; }

  /// Value of the whole expression tree containing v: walks to the
  /// finalizing vertex (O(log n) expected) and reads its final value.
  double value(VertexId v) const {
    VertexId x = v;
    for (;;) {
      const std::uint32_t d = c_.duration(x);
      const contract::RoundRecord& last = c_.record(d - 1, x);
      if (last.parent == x && children_empty(last.children)) {
        return value_of(x, d - 1);
      }
      x = last.parent;
    }
  }

  /// Full recomputation from the staged nodes (O(total records)); needed
  /// after changing a leaf constant in place.
  void rebuild() {
    grow(c_.capacity());
    std::uint32_t max_d = 0;
    for (VertexId v = 0; v < c_.capacity(); ++v) {
      const std::uint32_t d = c_.duration(v);
      max_d = std::max(max_d, d);
      if (d == 0) continue;
      acc_[v].assign(d, op_identity(nodes_[v].op));
      lin_[v].assign(d, Lin{});
    }
    if (max_d == 0) return;
    std::vector<std::vector<VertexId>> alive_at(max_d);
    for (VertexId v = 0; v < c_.capacity(); ++v) {
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
        recompute_acc(i - 1, v);
        const VertexId p_now = c_.record(i, v).parent;
        if (p_now == v) return;
        const VertexId p_before = c_.record(i - 1, v).parent;
        if (p_before == p_now) {
          // parct-lint: allow(shadow-write) reason: vertex-own round-i slot
          lin_[v][i] = at_lin(v, i - 1);
        } else {
          // parct-lint: allow(shadow-write) reason: vertex-own round-i slot
          lin_[v][i] = composed(p_before, v, i - 1);
        }
      });
    }
  }

  // --- EventHooks -------------------------------------------------------

  void on_begin(std::size_t capacity) override { grow(capacity); }

  void on_vertex_persist(std::uint32_t round, VertexId v) override {
    recompute_acc(round, v);
  }

  void on_edge_persist(std::uint32_t round, VertexId v,
                       VertexId /*parent*/) override {
    ensure(lin_[v], round + 1, Lin{});
    lin_[v][round + 1] = at_lin(v, round);
  }

  void on_compress(std::uint32_t round, VertexId m, VertexId child,
                   VertexId /*parent*/) override {
    ensure(lin_[child], round + 1, Lin{});
    lin_[child][round + 1] = composed(m, child, round);
  }

 private:
  struct Lin {
    double a = 1.0;
    double b = 0.0;
    double operator()(double x) const { return a * x + b; }
  };

  static double op_identity(Op op) { return op == Op::kMul ? 1.0 : 0.0; }

  double at_acc(VertexId v, std::uint32_t i) const {
    return i < acc_[v].size() ? acc_[v][i] : op_identity(nodes_[v].op);
  }
  Lin at_lin(VertexId v, std::uint32_t i) const {
    return i < lin_[v].size() ? lin_[v][i] : Lin{};
  }

  // Value v delivers once childless (all children folded).
  double value_of(VertexId v, std::uint32_t i) const {
    return nodes_[v].op == Op::kLeaf ? nodes_[v].value : at_acc(v, i);
  }

  // acc at round+1: fold children raking this round into the running acc.
  void recompute_acc(std::uint32_t round, VertexId v) {
    double acc = at_acc(v, round);
    const contract::RoundRecord& r = c_.record(round, v);
    for (VertexId ch : r.children) {
      if (ch == kNoVertex) continue;
      if (!children_empty(c_.record(round, ch).children)) continue;
      const double x = at_lin(ch, round)(value_of(ch, round));
      switch (nodes_[v].op) {
        case Op::kAdd: acc += x; break;
        case Op::kMul: acc *= x; break;
        case Op::kLeaf:
          throw std::logic_error("leaf vertex has a child in the forest");
      }
    }
    ensure(acc_[v], round + 1, op_identity(nodes_[v].op));
    acc_[v][round + 1] = acc;
  }

  // New linear form for `child` when `m` (its parent) compresses at
  // `round`: x -> lin_m( acc_m op_m lin_child(x) ).
  Lin composed(VertexId m, VertexId child, std::uint32_t round) const {
    const Lin lm = at_lin(m, round);
    const Lin lu = at_lin(child, round);
    const double am = at_acc(m, round);
    Lin out;
    if (nodes_[m].op == Op::kAdd) {
      out.a = lm.a * lu.a;
      out.b = lm.a * (lu.b + am) + lm.b;
    } else if (nodes_[m].op == Op::kMul) {
      out.a = lm.a * am * lu.a;
      out.b = lm.a * am * lu.b + lm.b;
    } else {
      throw std::logic_error("leaf vertex compressed over a child");
    }
    return out;
  }

  template <typename T>
  static void ensure(std::vector<T>& h, std::uint32_t round,
                     const T& fill) {
    if (h.size() <= round) h.resize(round + 1, fill);
  }

  void grow(std::size_t capacity) {
    if (nodes_.size() < capacity) {
      nodes_.resize(capacity);
      acc_.resize(capacity);
      lin_.resize(capacity);
    }
  }

  const contract::ContractionForest& c_;
  std::vector<ExprNode> nodes_;
  std::vector<std::vector<double>> acc_;
  std::vector<std::vector<Lin>> lin_;
};

}  // namespace parct::rc
