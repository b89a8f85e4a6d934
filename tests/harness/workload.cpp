#include "harness/workload.hpp"

#include <algorithm>
#include <vector>

#include "forest/generators.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "test_util.hpp"

namespace parct::harness {

namespace {

using forest::ChangeSet;
using forest::Forest;
using hashing::SplitMix64;

/// Skewed batch size in [1, max_batch]: uniform over exponentially growing
/// ranges, so most batches are small with occasional bursts at the cap.
std::size_t skewed_batch_size(SplitMix64& rng, std::size_t max_batch) {
  unsigned log_cap = 0;
  while ((2ull << log_cap) <= max_batch) ++log_cap;
  const std::size_t bound = std::min<std::size_t>(
      max_batch, 1ull << rng.next_below(log_cap + 1));
  return 1 + rng.next_below(bound);
}

std::vector<VertexId> absent_ids(const Forest& f) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < f.capacity(); ++v) {
    if (!f.present(v)) out.push_back(v);
  }
  return out;
}

/// True if `p` would end up inside `child`'s subtree once `child` is cut
/// loose (conservative pre-application cycle test, as in fuzz_soak).
bool reaches(const Forest& f, VertexId p, VertexId child) {
  VertexId w = p;
  while (!f.is_root(w) && w != child) w = f.parent(w);
  return w == child;
}

ChangeSet gen_subtree_moves(const Forest& cur, std::size_t k,
                            SplitMix64& rng) {
  ChangeSet m = forest::make_delete_batch(
      cur, std::min<std::size_t>(k, cur.num_edges()), rng.next());
  std::vector<int> extra(cur.capacity(), 0);
  for (const Edge& e : m.remove_edges) {
    for (int tries = 0; tries < 100; ++tries) {
      const VertexId p =
          static_cast<VertexId>(rng.next_below(cur.capacity()));
      if (!cur.present(p) || p == e.child) continue;
      if (cur.degree(p) + extra[p] >= cur.degree_bound()) continue;
      if (reaches(cur, p, e.child)) continue;
      ++extra[p];
      m.ins_edge(e.child, p);
      break;
    }
  }
  return m;
}

ChangeSet gen_fresh_vertices(const Forest& cur, std::size_t k,
                             SplitMix64& rng) {
  ChangeSet m;
  const std::vector<VertexId> free = absent_ids(cur);
  std::vector<int> extra(cur.capacity(), 0);
  for (std::size_t i = 0; i < k && i < free.size(); ++i) {
    for (int tries = 0; tries < 100; ++tries) {
      const VertexId p =
          static_cast<VertexId>(rng.next_below(cur.capacity()));
      if (!cur.present(p)) continue;
      if (cur.degree(p) + extra[p] >= cur.degree_bound()) continue;
      ++extra[p];
      m.ins_vertex(free[i]).ins_edge(free[i], p);
      break;
    }
  }
  return m;
}

ChangeSet gen_remove_leaves(const Forest& cur, std::size_t k,
                            SplitMix64& rng) {
  ChangeSet m;
  std::vector<VertexId> leaves;
  for (VertexId v = 0; v < cur.capacity(); ++v) {
    if (cur.present(v) && cur.is_leaf(v)) leaves.push_back(v);
  }
  const std::size_t take = std::min(leaves.size(), k);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng.next_below(leaves.size() - i);
    std::swap(leaves[i], leaves[j]);
    m.del_vertex(leaves[i]);
    if (!cur.is_root(leaves[i])) {
      m.del_edge(leaves[i], cur.parent(leaves[i]));
    }
  }
  return m;
}

/// Batches aimed at tree roots: re-root a tree under another one, shed a
/// root's children, or delete a root vertex outright.
ChangeSet gen_root_churn(const Forest& cur, SplitMix64& rng) {
  ChangeSet m;
  const std::vector<VertexId> roots = cur.roots();
  if (roots.empty()) return m;
  const VertexId r = roots[rng.next_below(roots.size())];
  switch (rng.next_below(3)) {
    case 0: {  // attach root r under a vertex of another tree
      for (int tries = 0; tries < 100; ++tries) {
        const VertexId p =
            static_cast<VertexId>(rng.next_below(cur.capacity()));
        if (!cur.present(p) || forest::root_of(cur, p) == r) continue;
        if (cur.degree(p) >= cur.degree_bound()) continue;
        m.ins_edge(r, p);
        break;
      }
      break;
    }
    case 1: {  // cut some of r's child edges (children become roots)
      for (VertexId u : cur.children(r)) {
        if (u != kNoVertex && rng.next_bool()) m.del_edge(u, r);
      }
      break;
    }
    default: {  // delete the root vertex (all incident edges must go)
      for (VertexId u : cur.children(r)) {
        if (u != kNoVertex) m.del_edge(u, r);
      }
      m.del_vertex(r);
      break;
    }
  }
  return m;
}

/// Delete-then-reinsert of the very same edges within one batch (E- ∩ E+).
ChangeSet gen_edge_bounce(const Forest& cur, std::size_t k,
                          SplitMix64& rng) {
  ChangeSet m;
  if (cur.num_edges() == 0) return m;
  const std::vector<Edge> picked = forest::select_random_edges(
      cur, std::min<std::size_t>(k, cur.num_edges()), rng.next());
  for (const Edge& e : picked) {
    m.del_edge(e.child, e.parent).ins_edge(e.child, e.parent);
  }
  return m;
}

}  // namespace

Trace generate_trace(const WorkloadConfig& config,
                     const CandidateObserver& observe) {
  SplitMix64 rng(config.seed);
  Trace t;
  t.master_seed = config.seed;
  t.num_workers = config.num_workers != 0
                      ? config.num_workers
                      : 1 + static_cast<unsigned>(rng.next_below(8));
  t.steal_seed = rng.next();
  t.contraction_seed = rng.next();
  t.ett_seed = rng.next();

  const std::size_t num_shapes = std::size(test::kShapes);
  const std::size_t shape =
      config.shape >= 0 ? static_cast<std::size_t>(config.shape) % num_shapes
                        : rng.next_below(num_shapes);
  Forest cur =
      test::kShapes[shape].build(config.n, rng.next(), config.extra_capacity);
  t.degree_bound = cur.degree_bound();
  t.initial = cur;

  for (VertexId v = 0; v < cur.capacity(); ++v) {
    if (!cur.present(v)) continue;
    t.initial_vertex_weights.emplace_back(
        v, static_cast<long>(rng.next_below(7)));
    if (!cur.is_root(v)) {
      t.initial_edge_weights.emplace_back(
          v, static_cast<long>(rng.next_below(9)));
    }
  }

  std::uint64_t ops = 0;
  // Generous attempt budget: some step kinds come up empty on degenerate
  // forests (no leaves, no spare ids, ...).
  std::uint64_t attempts = 16 + 8 * config.target_ops;
  while (ops < config.target_ops && attempts-- > 0) {
    const std::size_t k = skewed_batch_size(rng, config.max_batch);
    ChangeSet m;
    switch (rng.next_below(6)) {
      case 0:
        if (cur.num_edges() > 0) {
          m = forest::make_delete_batch(
              cur, std::min<std::size_t>(k, cur.num_edges()), rng.next());
        }
        break;
      case 1:
        if (cur.num_edges() > 0) m = gen_subtree_moves(cur, k, rng);
        break;
      case 2:
        m = gen_fresh_vertices(cur, k, rng);
        break;
      case 3:
        m = gen_remove_leaves(cur, std::min<std::size_t>(k, 8), rng);
        break;
      case 4:
        m = gen_root_churn(cur, rng);
        break;
      default:
        m = gen_edge_bounce(cur, k, rng);
        break;
    }
    if (m.empty()) continue;
    const bool valid = !forest::check_change_set(cur, m).has_value();
    if (observe) observe(m, valid);
    if (!valid) continue;

    TraceStep step;
    step.batch = m;
    for (const Edge& e : m.add_edges) {
      step.edge_weights.emplace_back(e.child,
                                     static_cast<long>(rng.next_below(9)));
    }
    for (VertexId v : m.add_vertices) {
      step.vertex_weights.emplace_back(v,
                                       static_cast<long>(rng.next_below(7)));
    }
    cur = forest::apply_change_set(cur, m);
    ops += m.size();
    t.steps.push_back(std::move(step));
  }
  return t;
}

}  // namespace parct::harness
