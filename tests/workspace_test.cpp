// Tests for the Workspace scratch arena (primitives/workspace.hpp) and the
// memory discipline it enforces: size-class pooling (hit/miss accounting),
// epoch semantics, tracked destination growth — and the steady-state
// acceptance property of this codebase: after a warm-up batch, repeated
// Propagate cycles perform ZERO heap allocations (no pool misses, no
// container growths, no fresh bytes), so batch updates do not grow peak
// memory round over round.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_probe.hpp"
#include "contraction/construct.hpp"
#include "contraction/contraction_forest.hpp"
#include "contraction/dynamic_update.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/workspace.hpp"

namespace parct {
namespace {

TEST(WorkspaceTest, FirstAcquireMissesThenHits) {
  Workspace ws;
  {
    auto lease = ws.acquire<std::uint32_t>(100);
    EXPECT_EQ(lease.size(), 100u);
    lease[0] = 7;
    lease[99] = 9;
    EXPECT_EQ(lease[0], 7u);
  }
  EXPECT_EQ(ws.stats().acquires, 1u);
  EXPECT_EQ(ws.stats().misses, 1u);
  EXPECT_EQ(ws.stats().hits, 0u);
  {
    // Same size class: served from the pool.
    auto lease = ws.acquire<std::uint32_t>(100);
    (void)lease;
  }
  EXPECT_EQ(ws.stats().hits, 1u);
  EXPECT_EQ(ws.stats().misses, 1u);
  {
    // A different (larger) class must allocate.
    auto lease = ws.acquire<std::uint32_t>(100000);
    (void)lease;
  }
  EXPECT_EQ(ws.stats().misses, 2u);
}

TEST(WorkspaceTest, SizeClassesAreSharedAcrossTypes) {
  // Pooling is by byte size class, not element type: 16 uint32s and 8
  // uint64s both round up to the 64-byte class.
  Workspace ws;
  { auto a = ws.acquire<std::uint64_t>(8); (void)a; }
  { auto b = ws.acquire<std::uint32_t>(16); (void)b; }
  EXPECT_EQ(ws.stats().misses, 1u);
  EXPECT_EQ(ws.stats().hits, 1u);
}

TEST(WorkspaceTest, OutstandingAndConcurrentLeases) {
  Workspace ws;
  EXPECT_EQ(ws.outstanding(), 0u);
  {
    auto a = ws.acquire<std::uint32_t>(10);
    auto b = ws.acquire<std::uint32_t>(10);  // a still live: fresh block
    EXPECT_EQ(ws.outstanding(), 2u);
    (void)a;
    (void)b;
  }
  EXPECT_EQ(ws.outstanding(), 0u);
  EXPECT_EQ(ws.stats().misses, 2u);
  {
    // Both blocks are back in the class's free list.
    auto a = ws.acquire<std::uint32_t>(10);
    auto b = ws.acquire<std::uint32_t>(10);
    (void)a;
    (void)b;
  }
  EXPECT_EQ(ws.stats().misses, 2u);
  EXPECT_EQ(ws.stats().hits, 2u);
}

TEST(WorkspaceTest, EpochResetKeepsCapacityAndCounts) {
  Workspace ws;
  { auto a = ws.acquire<std::uint32_t>(4096); (void)a; }
  const std::uint64_t held = ws.stats().bytes_held;
  EXPECT_GT(held, 0u);
  ws.epoch_reset();
  ws.epoch_reset();
  EXPECT_EQ(ws.stats().epochs, 2u);
  EXPECT_EQ(ws.stats().bytes_held, held);  // capacity retained
  { auto a = ws.acquire<std::uint32_t>(4096); (void)a; }
  EXPECT_EQ(ws.stats().misses, 1u);  // still a pool hit after the reset
}

TEST(WorkspaceTest, TrimReleasesCachedBlocks) {
  Workspace ws;
  { auto a = ws.acquire<std::uint32_t>(1000); (void)a; }
  EXPECT_GT(ws.stats().bytes_held, 0u);
  ws.trim();
  EXPECT_EQ(ws.stats().bytes_held, 0u);
  { auto a = ws.acquire<std::uint32_t>(1000); (void)a; }
  EXPECT_EQ(ws.stats().misses, 2u);  // trimmed block is gone
}

TEST(WorkspaceTest, ResizeTrackedRecordsGrowthOnly) {
  Workspace ws;
  std::vector<std::uint32_t> v;
  ws.resize_tracked(v, 100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(ws.stats().container_growths, 1u);
  const std::uint64_t bytes = ws.stats().container_bytes;
  EXPECT_GE(bytes, 100 * sizeof(std::uint32_t));
  // Shrinking and re-growing within capacity is free.
  ws.resize_tracked(v, 10);
  ws.resize_tracked(v, 100);
  EXPECT_EQ(ws.stats().container_growths, 1u);
  EXPECT_EQ(ws.stats().container_bytes, bytes);
}

TEST(WorkspaceTest, StatsDeltaSubtractsCounters) {
  Workspace ws;
  { auto a = ws.acquire<std::uint32_t>(10); (void)a; }
  const WorkspaceStats begin = ws.stats();
  { auto a = ws.acquire<std::uint32_t>(10); (void)a; }
  { auto a = ws.acquire<std::uint32_t>(1u << 20); (void)a; }
  const WorkspaceStats d = workspace_stats_delta(begin, ws.stats());
  EXPECT_EQ(d.acquires, 2u);
  EXPECT_EQ(d.hits, 1u);
  EXPECT_EQ(d.misses, 1u);
  EXPECT_GT(d.bytes_allocated, 0u);
}

TEST(WorkspaceTest, WorkerWorkspaceIsStablePerThread) {
  par::scheduler::initialize(2);
  Workspace& a = par::scheduler::worker_workspace();
  Workspace& b = par::scheduler::worker_workspace();
  EXPECT_EQ(&a, &b);
}

// The steady-state acceptance property (and the peak-memory regression
// guard): a warmed DynamicUpdater applies batch after batch with zero heap
// allocations — every scratch acquire is a pool hit and no reused buffer
// ever grows. Verified for an insert/inverse-delete cycle, which restores
// the structure exactly between iterations (differential-tested identity),
// so every cycle re-executes the same allocation profile. The cutover is
// pinned to 0 (always parallel): at the built-in 1024 the batch's smaller
// rounds would run inline and leave part of the pooled path this test is
// about unexercised.
TEST(WorkspaceSteadyState, PropagateIsAllocationFreeAfterWarmup) {
  par::scheduler::initialize(4);
  par::set_serial_cutover(0);
  const std::size_t n = 50000;
  forest::Forest full = forest::build_tree(n, 4, 0.6, 0x5EEDull);
  auto [initial, batch] = forest::make_insert_batch(full, 800, 31);
  forest::ChangeSet inverse;
  inverse.remove_edges = batch.add_edges;

  contract::ContractionForest c(full.capacity(), 4, 99);
  contract::construct(c, initial);
  contract::DynamicUpdater updater(c);

  // Warm-up: the first cycle grows every pool block and buffer capacity.
  const contract::UpdateStats cold = updater.apply(batch);
  updater.apply(inverse);
  EXPECT_GT(cold.ws_acquires, 0u);

  for (int cycle = 0; cycle < 4; ++cycle) {
    const contract::UpdateStats fwd = updater.apply(batch);
    EXPECT_EQ(fwd.ws_misses, 0u) << "insert, cycle " << cycle;
    EXPECT_EQ(fwd.ws_container_growths, 0u) << "insert, cycle " << cycle;
    EXPECT_EQ(fwd.ws_bytes_allocated, 0u) << "insert, cycle " << cycle;
    EXPECT_EQ(fwd.ws_acquires, fwd.ws_hits) << "insert, cycle " << cycle;

    const contract::UpdateStats inv = updater.apply(inverse);
    EXPECT_EQ(inv.ws_misses, 0u) << "delete, cycle " << cycle;
    EXPECT_EQ(inv.ws_container_growths, 0u) << "delete, cycle " << cycle;
    EXPECT_EQ(inv.ws_bytes_allocated, 0u) << "delete, cycle " << cycle;
  }
  par::clear_serial_cutover();
  par::scheduler::initialize(1);
}

// The adaptive serial fast path (par::AdaptivePhase; sub-cutover rounds
// run inline) must preserve the allocation discipline: a warmed m=1 update
// — whose every round takes the serial path under the default cutover —
// still leases all scratch from the pool and never grows a buffer.
TEST(WorkspaceSteadyState, SerialFastPathStaysAllocationFreeWarm) {
  par::scheduler::initialize(1);
  forest::Forest full = forest::build_tree(50000, 4, 0.6, 0xFA57ull);
  auto [initial, batch] = forest::make_insert_batch(full, 1, 3);
  forest::ChangeSet inverse;
  inverse.remove_edges = batch.add_edges;

  contract::ContractionForest c(full.capacity(), 4, 99);
  contract::construct(c, initial);
  contract::DynamicUpdater updater(c);
  updater.apply(batch);  // warm-up cycle
  updater.apply(inverse);

  for (int cycle = 0; cycle < 4; ++cycle) {
    const contract::UpdateStats fwd = updater.apply(batch);
    // The fast path must actually engage (m=1 frontiers are far below the
    // default cutover) AND stay allocation-free.
    EXPECT_GT(fwd.chose_serial, 0u) << "cycle " << cycle;
    EXPECT_EQ(fwd.ws_misses, 0u) << "cycle " << cycle;
    EXPECT_EQ(fwd.ws_container_growths, 0u) << "cycle " << cycle;
    EXPECT_EQ(fwd.ws_bytes_allocated, 0u) << "cycle " << cycle;
    const contract::UpdateStats inv = updater.apply(inverse);
    EXPECT_GT(inv.chose_serial, 0u) << "cycle " << cycle;
    EXPECT_EQ(inv.ws_misses, 0u) << "cycle " << cycle;
    EXPECT_EQ(inv.ws_container_growths, 0u) << "cycle " << cycle;
  }
}

// Stronger than the workspace counters above: a warmed m=1 update makes
// no heap allocation of any kind on the calling thread — nothing per
// round is recorded into a growing container.
TEST(WorkspaceSteadyState, WarmSingleEdgeApplyAllocatesNothing) {
  par::scheduler::initialize(1);
  forest::Forest full = forest::build_tree(50000, 4, 0.6, 0xFA57ull);
  auto [initial, batch] = forest::make_insert_batch(full, 1, 3);
  forest::ChangeSet inverse;
  inverse.remove_edges = batch.add_edges;

  contract::ContractionForest c(full.capacity(), 4, 99);
  contract::construct(c, initial);
  contract::DynamicUpdater updater(c);
  updater.apply(batch);  // warm-up cycle
  updater.apply(inverse);

  for (int cycle = 0; cycle < 4; ++cycle) {
    const test::Allocations fwd =
        test::allocations_during([&] { updater.apply(batch); });
    EXPECT_EQ(fwd.count, 0u) << "insert, cycle " << cycle;
    const test::Allocations inv =
        test::allocations_during([&] { updater.apply(inverse); });
    EXPECT_EQ(inv.count, 0u) << "delete, cycle " << cycle;
  }
}

// Same property for mixed delete batches: after the first application of a
// given batch shape, re-applying comparable batches stays within the warmed
// capacities.
TEST(WorkspaceSteadyState, RepeatedDeleteBatchesDoNotGrowMemory) {
  par::scheduler::initialize(4);
  const std::size_t n = 30000;
  forest::Forest f = forest::build_tree(n, 4, 0.5, 0xD00Dull);
  contract::ContractionForest c(f.capacity(), 4, 7);
  contract::construct(c, f);
  contract::DynamicUpdater updater(c);

  const forest::ChangeSet m = forest::make_delete_batch(f, 500, 13);
  forest::ChangeSet inverse;
  inverse.add_edges = m.remove_edges;

  updater.apply(m);
  updater.apply(inverse);
  for (int cycle = 0; cycle < 3; ++cycle) {
    const contract::UpdateStats del = updater.apply(m);
    EXPECT_EQ(del.ws_misses, 0u) << "cycle " << cycle;
    EXPECT_EQ(del.ws_container_growths, 0u) << "cycle " << cycle;
    const contract::UpdateStats ins = updater.apply(inverse);
    EXPECT_EQ(ins.ws_misses, 0u) << "cycle " << cycle;
    EXPECT_EQ(ins.ws_container_growths, 0u) << "cycle " << cycle;
  }
  par::scheduler::initialize(1);
}

// construct() over a warm external Workspace re-leases every block from
// the pool (deterministic coins => identical round sizes => identical size
// classes).
TEST(WorkspaceSteadyState, ConstructReusesWarmWorkspace) {
  par::scheduler::initialize(4);
  const std::size_t n = 30000;
  forest::Forest f = forest::build_tree(n, 4, 0.6, 0xABCDull);
  Workspace ws;

  contract::ContractionForest c1(f.capacity(), 4, 42);
  const contract::ConstructStats first =
      contract::construct(c1, f, nullptr, &ws);
  EXPECT_GT(first.ws_acquires, 0u);
  EXPECT_GT(first.ws_misses, 0u);  // cold pool

  contract::ContractionForest c2(f.capacity(), 4, 42);
  const contract::ConstructStats second =
      contract::construct(c2, f, nullptr, &ws);
  EXPECT_EQ(second.ws_misses, 0u);
  EXPECT_EQ(second.ws_acquires, second.ws_hits);
  par::scheduler::initialize(1);
}

}  // namespace
}  // namespace parct
