// TreeAggregate incremental repair (prepare_update/apply_update) vs the
// from-scratch rebuild() oracle, across edge churn, vertex churn and
// weight changes — and a locality check that the repaired region stays
// proportional to the affected region, not the forest.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"

namespace parct::rc {
namespace {

// Repairs the derived layers after an update the way the serving layer
// does: over the updater's touched() set, old representatives captured
// before refresh.
void repair(RCForest& rcf, TreeAggregate<long>& agg,
            const contract::DynamicUpdater& updater) {
  agg.prepare_update(updater.touched());
  rcf.refresh(updater.touched());
  agg.apply_update();
}

// The incremental accumulators must equal a from-scratch rebuild with the
// same weights (a fresh TreeAggregate rebuilds in its constructor).
void expect_matches_rebuild(const RCForest& rcf, const TreeAggregate<long>& agg) {
  TreeAggregate<long> oracle(rcf, agg.weights());
  const std::vector<long>& got = agg.accumulators();
  const std::vector<long>& want = oracle.accumulators();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_EQ(got[v], want[v]) << "accumulator mismatch at vertex " << v;
  }
}

// Independent cross-check against the plain forest: the weight of v's
// tree is the sum of weights over v's component.
void expect_matches_forest(const forest::Forest& f, const RCForest& rcf,
                           const TreeAggregate<long>& agg,
                           const std::vector<long>& w) {
  std::vector<long> component(f.capacity(), 0);
  for (VertexId v = 0; v < f.capacity(); ++v) {
    if (f.present(v)) component[forest::root_of(f, v)] += w[v];
  }
  for (VertexId v = 0; v < f.capacity(); ++v) {
    if (!f.present(v)) continue;
    ASSERT_EQ(agg.tree_weight(v), component[forest::root_of(f, v)])
        << "tree weight mismatch at vertex " << v;
    (void)rcf;
  }
}

TEST(TreeAggregateIncremental, DeleteBatchesMatchRebuild) {
  const std::size_t n = 1200;
  forest::Forest f = forest::random_forest(n, 5, 4, 0.45, 21);
  contract::ContractionForest c(n, 4, 5);
  contract::construct(c, f);
  RCForest rcf(c);

  hashing::SplitMix64 rng(7);
  std::vector<long> w(n);
  for (long& x : w) x = static_cast<long>(rng.next_below(100));
  TreeAggregate<long> agg(rcf, w);
  contract::DynamicUpdater updater(c);

  forest::Forest cur = f;
  for (int step = 0; step < 8; ++step) {
    forest::ChangeSet m = forest::make_delete_batch(cur, 6, 300 + step);
    updater.apply(m);
    cur = forest::apply_change_set(cur, m);
    repair(rcf, agg, updater);
    expect_matches_rebuild(rcf, agg);
    expect_matches_forest(cur, rcf, agg, w);
  }
}

TEST(TreeAggregateIncremental, InsertBatchesMatchRebuild) {
  const std::size_t n = 1000;
  forest::Forest full = forest::build_tree(n, 4, 0.5, 13);
  auto [cur, m0] = forest::make_insert_batch(full, 40, 99);
  contract::ContractionForest c(n, 4, 17);
  contract::construct(c, cur);
  RCForest rcf(c);

  std::vector<long> w(n, 1);
  TreeAggregate<long> agg(rcf, w);
  contract::DynamicUpdater updater(c);

  // Re-insert the cut edges in two halves, checking after each.
  forest::ChangeSet first, second;
  for (std::size_t i = 0; i < m0.add_edges.size(); ++i) {
    (i % 2 ? second : first).add_edges.push_back(m0.add_edges[i]);
  }
  for (const forest::ChangeSet* m : {&first, &second}) {
    updater.apply(*m);
    cur = forest::apply_change_set(cur, *m);
    repair(rcf, agg, updater);
    expect_matches_rebuild(rcf, agg);
    expect_matches_forest(cur, rcf, agg, w);
  }
}

TEST(TreeAggregateIncremental, VertexChurnMatchesRebuild) {
  const std::size_t n = 800;
  forest::Forest f = forest::build_tree(n, 4, 0.5, 5, /*extra_capacity=*/64);
  contract::ContractionForest c(f.capacity(), 4, 23);
  contract::construct(c, f);
  RCForest rcf(c);

  std::vector<long> w(f.capacity(), 3);
  TreeAggregate<long> agg(rcf, w);
  contract::DynamicUpdater updater(c);

  forest::Forest cur = f;
  for (int step = 0; step < 4; ++step) {
    forest::ChangeSet m =
        forest::make_vertex_batch(cur, /*k_add=*/6, /*k_del=*/5, 40 + step);
    updater.apply(m);
    cur = forest::apply_change_set(cur, m);
    repair(rcf, agg, updater);
    // Weights of churned ids: removed ids drop to 0, fresh ids get 3 —
    // ids can leave and re-enter across batches (the acc == weight
    // invariant for absent vertices).
    for (VertexId v : m.remove_vertices) {
      agg.set_weight(v, 0);
      w[v] = 0;
    }
    for (VertexId v : m.add_vertices) {
      agg.set_weight(v, 3);
      w[v] = 3;
    }
    expect_matches_rebuild(rcf, agg);
    expect_matches_forest(cur, rcf, agg, w);
  }
}

TEST(TreeAggregateIncremental, SetWeightBetweenStructuralUpdates) {
  const std::size_t n = 600;
  forest::Forest f = forest::random_forest(n, 3, 4, 0.4, 77);
  contract::ContractionForest c(n, 4, 31);
  contract::construct(c, f);
  RCForest rcf(c);
  std::vector<long> w(n, 2);
  TreeAggregate<long> agg(rcf, w);
  contract::DynamicUpdater updater(c);

  forest::Forest cur = f;
  hashing::SplitMix64 rng(11);
  for (int step = 0; step < 6; ++step) {
    const VertexId v = static_cast<VertexId>(rng.next_below(n));
    const long nw = static_cast<long>(rng.next_below(50));
    agg.set_weight(v, nw);
    w[v] = nw;

    forest::ChangeSet m = forest::make_delete_batch(cur, 3, 500 + step);
    updater.apply(m);
    cur = forest::apply_change_set(cur, m);
    repair(rcf, agg, updater);
    expect_matches_rebuild(rcf, agg);
    expect_matches_forest(cur, rcf, agg, w);
  }
}

TEST(TreeAggregateIncremental, RepairedRegionIsLocal) {
  // One edge deleted from a large chain: the repaired region must stay a
  // small fraction of the forest (it is the affected region times the
  // O(log n) representative chains, not O(n)) — the whole point of the
  // incremental path over the old full rebuild.
  const std::size_t n = 20000;
  forest::Forest f = forest::build_chain(n);
  contract::ContractionForest c(n, 4, 43);
  contract::construct(c, f);
  RCForest rcf(c);
  TreeAggregate<long> agg(rcf, std::vector<long>(n, 1));
  contract::DynamicUpdater updater(c);

  forest::ChangeSet m;
  m.del_edge(n / 2, n / 2 - 1);  // build_chain: parent of v is v-1
  updater.apply(m);
  repair(rcf, agg, updater);

  EXPECT_LT(agg.last_region().size(), n / 8)
      << "single-edge repair touched a large fraction of the forest";
  expect_matches_rebuild(rcf, agg);
}

}  // namespace
}  // namespace parct::rc
