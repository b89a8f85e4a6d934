// Tests for the dynamic update algorithm (paper §2.5). The keystone is
// from-scratch equivalence: after ModifyContraction, the structure must be
// structurally identical to what the construction algorithm produces on the
// edited forest under the same coin schedule — the paper's behavioural
// equivalence, checked exhaustively over shapes, batch kinds and sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "contraction/validate.hpp"
#include "forest/generators.hpp"
#include "forest/validation.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/scheduler.hpp"
#include "test_util.hpp"

namespace parct {
namespace {

using contract::ContractionForest;
using contract::DynamicUpdater;
using contract::UpdateStats;
using forest::ChangeSet;
using forest::Forest;

// Applies `m` dynamically to a structure built for `f0`, and checks the
// result equals a from-scratch construction on apply_change_set(f0, m).
// Returns the update stats for further assertions.
UpdateStats expect_equivalent(const Forest& f0, const ChangeSet& m,
                              std::uint64_t seed) {
  auto err = forest::check_change_set(f0, m);
  EXPECT_FALSE(err.has_value()) << *err;

  ContractionForest c(f0.capacity(), f0.degree_bound(), seed);
  contract::construct(c, f0);
  UpdateStats stats = contract::modify_contraction(c, m);

  const Forest f1 = forest::apply_change_set(f0, m);
  ContractionForest oracle(f1.capacity(), f0.degree_bound(), seed);
  contract::construct(oracle, f1);

  EXPECT_TRUE(contract::structurally_equal(c, oracle))
      << "dynamic update diverged from from-scratch construction";
  // Belt and braces: the updated structure must also be valid for f1
  // according to the independent simulator.
  auto verr = contract::check_valid(c, f1);
  EXPECT_FALSE(verr.has_value()) << *verr;
  return stats;
}

// --- tiny hand-written cases ------------------------------------------

TEST(DynamicUpdate, EmptyChangeSetIsNoop) {
  Forest f = forest::build_chain(10);
  ContractionForest c(f.capacity(), 4, 3);
  contract::construct(c, f);
  ContractionForest before(f.capacity(), 4, 3);
  contract::construct(before, f);
  UpdateStats stats = contract::modify_contraction(c, ChangeSet{});
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_TRUE(contract::structurally_equal(c, before));
}

TEST(DynamicUpdate, SingleEdgeInsertLinksTwoChains) {
  Forest f(10, 4, 10);
  for (VertexId v = 1; v < 5; ++v) f.link(v, v - 1);   // chain A rooted at 0
  for (VertexId v = 6; v < 10; ++v) f.link(v, v - 1);  // chain B rooted at 5
  ChangeSet m;
  m.ins_edge(5, 4);  // hang chain B under chain A's deepest vertex
  expect_equivalent(f, m, 42);
}

TEST(DynamicUpdate, SingleEdgeDeleteSplitsChain) {
  Forest f = forest::build_chain(12);
  ChangeSet m;
  m.del_edge(6, 5);
  expect_equivalent(f, m, 42);
}

TEST(DynamicUpdate, DeleteAtRootAndLeaf) {
  Forest f = forest::build_chain(9);
  ChangeSet m;
  m.del_edge(1, 0);  // detach everything below the root
  m.del_edge(8, 7);  // detach the deepest leaf
  expect_equivalent(f, m, 17);
}

TEST(DynamicUpdate, InsertVertexAsNewLeaf) {
  Forest f = forest::build_chain(6, /*extra_capacity=*/2);
  ChangeSet m;
  m.ins_vertex(6).ins_edge(6, 3);
  expect_equivalent(f, m, 5);
}

TEST(DynamicUpdate, InsertIsolatedVertex) {
  Forest f = forest::build_chain(4, 1);
  ChangeSet m;
  m.ins_vertex(4);
  expect_equivalent(f, m, 5);
}

TEST(DynamicUpdate, RemoveLeafVertex) {
  Forest f = forest::build_balanced(15, 2);
  ChangeSet m;
  m.del_vertex(14).del_edge(14, 6);
  expect_equivalent(f, m, 5);
}

TEST(DynamicUpdate, RemoveIsolatedVertex) {
  Forest f(5, 4, 5);  // 5 isolated roots
  ChangeSet m;
  m.del_vertex(3);
  expect_equivalent(f, m, 5);
}

TEST(DynamicUpdate, RemoveInternalVertexSplicing) {
  // Remove an internal vertex v, reconnecting its child to its parent:
  // expressed as deleting v with all incident edges and inserting the
  // bypass edge.
  Forest f = forest::build_chain(8);
  ChangeSet m;
  m.del_vertex(4).del_edge(4, 3).del_edge(5, 4).ins_edge(5, 3);
  expect_equivalent(f, m, 91);
}

TEST(DynamicUpdate, MoveSubtreeToOtherTree) {
  Forest f(20, 4, 20);
  for (VertexId v = 1; v < 10; ++v) f.link(v, (v - 1) / 2);
  for (VertexId v = 11; v < 20; ++v) f.link(v, 10 + (v - 11) / 3);
  ChangeSet m;
  m.del_edge(3, 1).ins_edge(3, 15);
  expect_equivalent(f, m, 7);
}

TEST(DynamicUpdate, ReplaceWholeStar) {
  // Delete every edge of a star and rebuild the vertices as a chain rooted
  // at the far end (E+ must be disjoint from E, so the chain points the
  // other way: 0 -> 1 -> ... -> 5).
  Forest f(6, 8, 6);
  for (VertexId v = 1; v < 6; ++v) f.link(v, 0);
  ChangeSet m;
  for (VertexId v = 1; v < 6; ++v) m.del_edge(v, 0);
  for (VertexId v = 0; v < 5; ++v) m.ins_edge(v, v + 1);
  expect_equivalent(f, m, 33);
}

TEST(DynamicUpdate, SequentialUpdatesCompose) {
  Forest f = forest::build_tree(300, 4, 0.6, 4, /*extra_capacity=*/16);
  ContractionForest c(f.capacity(), 4, 99);
  contract::construct(c, f);
  DynamicUpdater updater(c);

  Forest cur = f;
  std::uint64_t seed = 1000;
  for (int step = 0; step < 12; ++step) {
    ChangeSet m;
    if (step % 3 == 0) {
      m = forest::make_delete_batch(cur, 5, seed++);
    } else if (step % 3 == 1) {
      auto [reduced, batch] = forest::make_insert_batch(cur, 5, seed++);
      // make_insert_batch cuts edges from `cur`; to keep this a pure
      // insertion step, first delete them dynamically, then re-insert.
      ChangeSet del;
      del.remove_edges = batch.add_edges;
      updater.apply(del);
      cur = reduced;
      m = batch;
    } else {
      m = forest::make_vertex_batch(cur, 3, 3, seed++);
    }
    ASSERT_FALSE(forest::check_change_set(cur, m).has_value());
    updater.apply(m);
    cur = forest::apply_change_set(cur, m);

    ContractionForest oracle(cur.capacity(), 4, 99);
    contract::construct(oracle, cur);
    ASSERT_TRUE(contract::structurally_equal(c, oracle))
        << "diverged at step " << step;
  }
}

// --- parameterized sweeps ----------------------------------------------

enum class BatchKind { kInsert, kDelete, kMixed, kVertices };

struct SweepCase {
  test::Shape shape;
  std::size_t n;
  std::size_t batch;
  BatchKind kind;
  std::uint64_t seed;
};

class UpdateEquivalence : public ::testing::TestWithParam<SweepCase> {};

TEST_P(UpdateEquivalence, MatchesFromScratch) {
  const SweepCase& p = GetParam();
  Forest full = p.shape.build(p.n, p.seed, /*extra=*/p.batch + 4);
  switch (p.kind) {
    case BatchKind::kInsert: {
      auto [initial, m] = forest::make_insert_batch(full, p.batch, p.seed);
      expect_equivalent(initial, m, p.seed * 7 + 1);
      break;
    }
    case BatchKind::kDelete: {
      ChangeSet m = forest::make_delete_batch(full, p.batch, p.seed);
      expect_equivalent(full, m, p.seed * 7 + 1);
      break;
    }
    case BatchKind::kMixed: {
      auto [initial, m] =
          forest::make_mixed_batch(full, p.batch / 2 + 1, p.batch / 2 + 1,
                                   p.seed);
      expect_equivalent(initial, m, p.seed * 7 + 1);
      break;
    }
    case BatchKind::kVertices: {
      // Chain-like shapes have a single non-root leaf; clamp deletions.
      std::size_t leaves = 0;
      for (VertexId v = 0; v < full.capacity(); ++v) {
        if (full.present(v) && full.is_leaf(v) && !full.is_root(v)) ++leaves;
      }
      ChangeSet m = forest::make_vertex_batch(
          full, p.batch / 2 + 1, std::min(p.batch / 2 + 1, leaves), p.seed);
      expect_equivalent(full, m, p.seed * 7 + 1);
      break;
    }
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> out;
  const BatchKind kinds[] = {BatchKind::kInsert, BatchKind::kDelete,
                             BatchKind::kMixed, BatchKind::kVertices};
  for (const auto& shape : test::kShapes) {
    if (std::string(shape.name) == "forest5") continue;  // no spare capacity
    for (std::size_t n : {64, 500}) {
      for (std::size_t batch : {1, 4, 16}) {
        for (BatchKind kind : kinds) {
          out.push_back({shape, n, batch, kind, 7919 + n + batch});
          out.push_back({shape, n, batch, kind, 104729 + 3 * n + 7 * batch});
        }
      }
    }
  }
  return out;
}

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const char* kind = "";
  switch (info.param.kind) {
    case BatchKind::kInsert: kind = "ins"; break;
    case BatchKind::kDelete: kind = "del"; break;
    case BatchKind::kMixed: kind = "mix"; break;
    case BatchKind::kVertices: kind = "vtx"; break;
  }
  return std::string(info.param.shape.name) + "_n" +
         std::to_string(info.param.n) + "_b" +
         std::to_string(info.param.batch) + "_" + kind + "_s" +
         std::to_string(info.param.seed % 1000);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UpdateEquivalence,
                         ::testing::ValuesIn(sweep_cases()), sweep_name);

// --- randomized soak: many random batches on one structure -------------

TEST(DynamicUpdate, RandomSoak) {
  Forest full = forest::build_tree(400, 4, 0.5, 1, 64);
  hashing::SplitMix64 rng(2718);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 1 + rng.next_below(20);
    const std::uint64_t s = rng.next();
    if (trial % 2 == 0) {
      auto [initial, m] = forest::make_insert_batch(full, k, s);
      expect_equivalent(initial, m, s ^ 0xABCD);
    } else {
      ChangeSet m = forest::make_delete_batch(full, k, s);
      expect_equivalent(full, m, s ^ 0xABCD);
    }
  }
}

// --- whole-forest batches (m ~ n) ---------------------------------------

TEST(DynamicUpdate, DeleteEveryEdge) {
  Forest f = forest::build_tree(200, 4, 0.6, 9);
  ChangeSet m;
  m.remove_edges = f.edges();
  expect_equivalent(f, m, 11);
}

TEST(DynamicUpdate, InsertEveryEdge) {
  Forest full = forest::build_tree(200, 4, 0.6, 9);
  ChangeSet m;
  m.add_edges = full.edges();
  Forest empty_edges(full.capacity(), 4, full.capacity());
  expect_equivalent(empty_edges, m, 11);
}

TEST(DynamicUpdate, BuildForestFromNothing) {
  // Start from an empty universe and create the whole forest via V+ / E+.
  Forest full = forest::build_tree(150, 4, 0.3, 21);
  ChangeSet m;
  for (VertexId v = 0; v < 150; ++v) m.ins_vertex(v);
  m.add_edges = full.edges();
  Forest empty(150, 4, 0);
  expect_equivalent(empty, m, 13);
}

TEST(DynamicUpdate, DeleteWholeForest) {
  Forest f = forest::build_tree(150, 4, 0.3, 21);
  ChangeSet m;
  m.remove_edges = f.edges();
  for (VertexId v = 0; v < 150; ++v) m.del_vertex(v);
  expect_equivalent(f, m, 13);
}

// --- stats / theorem-shaped checks --------------------------------------

TEST(DynamicUpdate, SmallBatchTouchesSmallRegion) {
  Forest full = forest::build_tree(20000, 4, 0.6, 3, 8);
  ChangeSet m = forest::make_delete_batch(full, 2, 5);
  ContractionForest c(full.capacity(), 4, 321);
  contract::construct(c, full);
  UpdateStats stats = contract::modify_contraction(c, m);
  // Lemma 7: |A^0| <= 3m. Lemma 10: E|A^i| = O(m); total affected across
  // O(log n) rounds stays far below n for constant m.
  EXPECT_LE(stats.initial_affected, 3 * m.size());
  EXPECT_LT(stats.total_affected, 2000u) << "update degenerated to O(n)";
  EXPECT_GT(stats.rounds, 0u);
}

TEST(DynamicUpdate, UpdatedDurationsShrinkStorage) {
  // Deleting all edges makes every vertex die in round 0 or 1; storage
  // must be truncated accordingly.
  Forest f = forest::build_chain(300);
  ContractionForest c(f.capacity(), 4, 1);
  contract::construct(c, f);
  ChangeSet m;
  m.remove_edges = f.edges();
  contract::modify_contraction(c, m);
  EXPECT_LE(c.total_records(), 300u);
  EXPECT_EQ(c.num_rounds(), 1u);  // all isolated: finalize in round 0
}

TEST(DynamicUpdate, DeterministicAcrossWorkerCounts) {
  Forest full = forest::build_tree(3000, 4, 0.6, 7, 8);
  auto [initial, m] = forest::make_insert_batch(full, 40, 9);

  par::scheduler::initialize(1);
  ContractionForest c1(initial.capacity(), 4, 55);
  contract::construct(c1, initial);
  contract::modify_contraction(c1, m);

  par::scheduler::initialize(4);
  ContractionForest c4(initial.capacity(), 4, 55);
  contract::construct(c4, initial);
  contract::modify_contraction(c4, m);
  par::scheduler::initialize(1);

  EXPECT_TRUE(contract::structurally_equal(c1, c4));
}

// The serial-path counter must agree with the rounds actually executed:
// one decision for the initial batch phase plus one per propagation
// round. Checked at cutover 0 (every round parallel), the built-in 1024,
// and SIZE_MAX (every round inline serial).
TEST(DynamicUpdate, RoundTelemetryMatchesRoundsAtEveryCutover) {
  Forest full = forest::build_tree(2000, 4, 0.6, 21, 0);
  auto [initial, m] = forest::make_insert_batch(full, 30, 5);

  const std::optional<std::size_t> cutovers[] = {
      std::size_t{0}, std::nullopt, ~std::size_t{0}};
  for (const auto& cutover : cutovers) {
    if (cutover.has_value()) {
      par::set_serial_cutover(*cutover);
    } else {
      par::clear_serial_cutover();
    }
    ContractionForest c(initial.capacity(), 4, 55);
    contract::construct(c, initial);
    const UpdateStats stats = contract::modify_contraction(c, m);
    ASSERT_GT(stats.rounds, 0u);

    if (cutover == std::size_t{0}) {
      // No frontier is <= 0, so every decision chose the parallel path.
      EXPECT_EQ(stats.chose_serial, 0u);
    } else {
      // SIZE_MAX, or the built-in 1024 above every frontier of this
      // 30-edge batch: every decision (initial phase + each round) chose
      // serial.
      if (!cutover.has_value()) {
        ASSERT_LE(stats.max_affected, 1024u);
      }
      EXPECT_EQ(stats.chose_serial, stats.rounds + 1u);
    }
  }
  par::clear_serial_cutover();
}

// The same accounting for construct(): the late contraction tail takes the
// serial fast path, and chose_serial counts one decision per round.
TEST(DynamicUpdate, ConstructCountsSerialTailRounds) {
  Forest f = forest::build_tree(3000, 4, 0.6, 17, 0);

  par::set_serial_cutover(~std::size_t{0});
  ContractionForest all_serial(f.capacity(), 4, 9);
  const contract::ConstructStats s1 = contract::construct(all_serial, f);
  EXPECT_EQ(s1.chose_serial, s1.rounds);

  par::set_serial_cutover(0);
  ContractionForest all_parallel(f.capacity(), 4, 9);
  const contract::ConstructStats s2 = contract::construct(all_parallel, f);
  EXPECT_EQ(s2.chose_serial, 0u);
  par::clear_serial_cutover();

  // Same coins, same structure — the execution path must not matter.
  EXPECT_TRUE(contract::structurally_equal(all_serial, all_parallel));
}

}  // namespace
}  // namespace parct
