// Tests for dynamic path-to-root aggregates: correctness vs brute force
// on random forests, across batched structural updates (the value layer
// repropagates through the re-executed affected region), and for both sum
// and max monoids.
#include <gtest/gtest.h>

#include <map>

#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "rc/path_aggregate.hpp"

namespace parct {
namespace {

using contract::ContractionForest;
using contract::DynamicUpdater;
using forest::ChangeSet;
using forest::Forest;
using PathSum = rc::PathAggregate<long, rc::PathPlus>;
using PathMaxAgg = rc::PathAggregate<long, rc::PathMax>;

long brute_path_sum(const Forest& f, const std::map<VertexId, long>& w,
                    VertexId v) {
  long acc = 0;
  while (!f.is_root(v)) {
    acc += w.at(v);
    v = f.parent(v);
  }
  return acc;
}

long brute_path_max(const Forest& f, const std::map<VertexId, long>& w,
                    VertexId v) {
  long acc = LONG_MIN;
  while (!f.is_root(v)) {
    acc = std::max(acc, w.at(v));
    v = f.parent(v);
  }
  return acc;
}

TEST(PathAggregate, ChainSumsAndRoots) {
  const std::size_t n = 64;
  Forest f = forest::build_chain(n);
  ContractionForest c(n, 4, 7);
  PathSum agg(c, 0);
  for (VertexId v = 1; v < n; ++v) agg.stage_edge_weight(v, v);  // w(v)=v
  contract::construct(c, f, &agg);
  for (VertexId v = 0; v < n; ++v) {
    // sum of 1..v
    EXPECT_EQ(agg.path_to_root(v), static_cast<long>(v) * (v + 1) / 2)
        << "vertex " << v;
  }
}

// An edge whose weight was never staged weighs the identity, through
// construction and through rebuild() alike.
TEST(PathAggregate, UnstagedEdgesWeighIdentity) {
  const std::size_t n = 2000;
  Forest f = forest::build_chain(n);
  ContractionForest c(n, 4, 7);
  PathSum agg(c, 0);
  for (VertexId v = 2; v < n; v += 2) agg.stage_edge_weight(v, 1);
  contract::construct(c, f, &agg);
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(agg.path_to_root(v), static_cast<long>(v / 2)) << "vertex " << v;
  }
  agg.rebuild();
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(agg.path_to_root(v), static_cast<long>(v / 2)) << "vertex " << v;
  }
}

TEST(PathAggregate, RandomTreeMatchesBruteForce) {
  const std::size_t n = 3000;
  Forest f = forest::build_tree(n, 4, 0.5, 11);
  ContractionForest c(n, 4, 13);
  PathSum agg(c, 0);
  std::map<VertexId, long> w;
  hashing::SplitMix64 rng(5);
  for (VertexId v = 0; v < n; ++v) {
    if (f.is_root(v)) continue;
    w[v] = static_cast<long>(rng.next_below(1000));
    agg.stage_edge_weight(v, w[v]);
  }
  contract::construct(c, f, &agg);
  for (int q = 0; q < 500; ++q) {
    const VertexId v = static_cast<VertexId>(rng.next_below(n));
    ASSERT_EQ(agg.path_to_root(v), brute_path_sum(f, w, v)) << v;
  }
}

TEST(PathAggregate, MaxMonoidBottleneck) {
  const std::size_t n = 1000;
  Forest f = forest::build_tree(n, 4, 0.7, 3);
  ContractionForest c(n, 4, 17);
  PathMaxAgg agg(c, LONG_MIN);
  std::map<VertexId, long> w;
  hashing::SplitMix64 rng(6);
  for (VertexId v = 0; v < n; ++v) {
    if (f.is_root(v)) continue;
    w[v] = static_cast<long>(rng.next_below(1 << 20));
    agg.stage_edge_weight(v, w[v]);
  }
  contract::construct(c, f, &agg);
  for (int q = 0; q < 300; ++q) {
    const VertexId v = static_cast<VertexId>(rng.next_below(n));
    if (f.is_root(v)) continue;
    ASSERT_EQ(agg.path_to_root(v), brute_path_max(f, w, v)) << v;
  }
}

TEST(PathAggregate, StaysCorrectAcrossBatchedUpdates) {
  const std::size_t n = 800;
  Forest full = forest::build_tree(n, 4, 0.6, 21);
  auto [cur, first_batch] = forest::make_insert_batch(full, 30, 2);

  ContractionForest c(full.capacity(), 4, 23);
  PathSum agg(c, 0);
  std::map<VertexId, long> w;
  hashing::SplitMix64 rng(9);
  for (VertexId v = 0; v < n; ++v) {
    if (cur.is_root(v)) continue;
    w[v] = static_cast<long>(rng.next_below(100));
    agg.stage_edge_weight(v, w[v]);
  }
  contract::construct(c, cur, &agg);
  DynamicUpdater updater(c);

  // Insert the held-out edges (with weights), then alternate random
  // deletions and re-insertions, checking the aggregate every step.
  for (const Edge& e : first_batch.add_edges) {
    w[e.child] = static_cast<long>(rng.next_below(100));
    agg.stage_edge_weight(e.child, w[e.child]);
  }
  updater.apply(first_batch, &agg);
  cur = forest::apply_change_set(cur, first_batch);

  std::vector<Edge> held_out;
  for (int step = 0; step < 8; ++step) {
    if (step % 2 == 0) {
      ChangeSet del = forest::make_delete_batch(cur, 15, rng.next());
      held_out = del.remove_edges;
      for (const Edge& e : del.remove_edges) w.erase(e.child);
      updater.apply(del, &agg);
      cur = forest::apply_change_set(cur, del);
    } else {
      ChangeSet ins;
      ins.add_edges = held_out;
      for (const Edge& e : ins.add_edges) {
        w[e.child] = static_cast<long>(rng.next_below(100));
        agg.stage_edge_weight(e.child, w[e.child]);
      }
      updater.apply(ins, &agg);
      cur = forest::apply_change_set(cur, ins);
    }
    for (int q = 0; q < 200; ++q) {
      const VertexId v = static_cast<VertexId>(rng.next_below(n));
      ASSERT_EQ(agg.path_to_root(v), brute_path_sum(cur, w, v))
          << "step " << step << " vertex " << v;
    }
  }
}

TEST(PathAggregate, WeightChangeViaReinsertion) {
  Forest f = forest::build_chain(40);
  ContractionForest c(40, 4, 31);
  PathSum agg(c, 0);
  for (VertexId v = 1; v < 40; ++v) agg.stage_edge_weight(v, 1);
  contract::construct(c, f, &agg);
  EXPECT_EQ(agg.path_to_root(39), 39);

  // Change edge (20 -> 19) weight to 100 by delete+reinsert in two steps.
  DynamicUpdater updater(c);
  ChangeSet del;
  del.del_edge(20, 19);
  updater.apply(del, &agg);
  ChangeSet ins;
  ins.ins_edge(20, 19);
  agg.stage_edge_weight(20, 100);
  updater.apply(ins, &agg);

  EXPECT_EQ(agg.path_to_root(39), 39 - 1 + 100);
  EXPECT_EQ(agg.path_to_root(19), 19);
}

TEST(PathAggregate, RebuildMatchesIncremental) {
  const std::size_t n = 500;
  Forest f = forest::build_tree(n, 4, 0.4, 4);
  ContractionForest c(n, 4, 5);
  PathSum incremental(c, 0);
  hashing::SplitMix64 rng(8);
  std::vector<long> base(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (f.is_root(v)) continue;
    base[v] = static_cast<long>(rng.next_below(50));
    incremental.stage_edge_weight(v, base[v]);
  }
  contract::construct(c, f, &incremental);

  // A second aggregate bound to the already-built structure, filled only
  // via rebuild().
  PathSum rebuilt(c, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!f.is_root(v)) rebuilt.stage_edge_weight(v, base[v]);
  }
  rebuilt.rebuild();
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(rebuilt.path_to_root(v), incremental.path_to_root(v)) << v;
  }
}

TEST(PathAggregate, NewVertexChainGrafted) {
  Forest f = forest::build_chain(20, 4);
  ContractionForest c(f.capacity(), 4, 41);
  PathSum agg(c, 0);
  for (VertexId v = 1; v < 20; ++v) agg.stage_edge_weight(v, 2);
  contract::construct(c, f, &agg);
  DynamicUpdater updater(c);

  ChangeSet graft;
  graft.ins_vertex(20).ins_vertex(21);
  graft.ins_edge(20, 19).ins_edge(21, 20);
  agg.stage_edge_weight(20, 5);
  agg.stage_edge_weight(21, 7);
  updater.apply(graft, &agg);

  EXPECT_EQ(agg.path_to_root(21), 19 * 2 + 5 + 7);
  EXPECT_EQ(agg.path_to_root(20), 19 * 2 + 5);
}

}  // namespace
}  // namespace parct
