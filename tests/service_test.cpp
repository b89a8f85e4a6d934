// Serving-layer unit tests: snapshot isolation, epoch semantics, version
// monotonicity, sentinel handling for untrusted ids, update validation,
// buffer recycling, every published version against a from-scratch build,
// and the engine-thread round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "contraction/construct.hpp"
#include "contraction/telemetry.hpp"
#include "durability/manager.hpp"
#include "forest/generators.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "rc/batch_queries.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"
#include "service/batch_server.hpp"

namespace parct::service {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1500;

  void SetUp() override {
    par::scheduler::initialize(4);
    f_ = forest::random_forest(kN, 6, 4, 0.4, 31);
    c_ = std::make_unique<contract::ContractionForest>(kN, 4, 3);
    contract::construct(*c_, f_);
  }
  void TearDown() override { par::scheduler::initialize(1); }

  QueryBatch sample_queries(std::uint64_t seed, std::size_t k) const {
    hashing::SplitMix64 rng(seed);
    QueryBatch q;
    for (std::size_t i = 0; i < k; ++i) {
      q.roots.push_back(static_cast<VertexId>(rng.next_below(kN)));
      q.connected.push_back({static_cast<VertexId>(rng.next_below(kN)),
                             static_cast<VertexId>(rng.next_below(kN))});
      q.tree_weights.push_back(static_cast<VertexId>(rng.next_below(kN)));
    }
    return q;
  }

  void expect_matches(const QueryBatch& q, const QueryResult& r,
                      const forest::Forest& oracle,
                      const std::vector<Weight>& w) const {
    std::vector<Weight> component(oracle.capacity(), 0);
    for (VertexId v = 0; v < oracle.capacity(); ++v) {
      if (oracle.present(v)) component[forest::root_of(oracle, v)] += w[v];
    }
    for (std::size_t i = 0; i < q.roots.size(); ++i) {
      ASSERT_EQ(r.roots[i], forest::root_of(oracle, q.roots[i])) << i;
    }
    for (std::size_t i = 0; i < q.connected.size(); ++i) {
      ASSERT_EQ(r.connected[i] != 0,
                forest::root_of(oracle, q.connected[i].first) ==
                    forest::root_of(oracle, q.connected[i].second))
          << i;
    }
    for (std::size_t i = 0; i < q.tree_weights.size(); ++i) {
      ASSERT_EQ(r.tree_weights[i],
                component[forest::root_of(oracle, q.tree_weights[i])])
          << i;
    }
  }

  forest::Forest f_{0};
  std::unique_ptr<contract::ContractionForest> c_;
};

TEST_F(ServiceTest, StepAnswersAgainstVersion0) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  QueryBatch q = sample_queries(1, 300);
  auto fut = server.submit_queries(q);
  ASSERT_TRUE(server.step());
  QueryResult r = fut.get();
  EXPECT_EQ(r.version, 0u);
  expect_matches(q, r, f_, std::vector<Weight>(kN, 1));
  EXPECT_FALSE(server.step()) << "empty step must report no work";
}

TEST_F(ServiceTest, UpdateEpochPinsQueriesToPriorVersion) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  const SnapshotHandle pinned0 = server.snapshot();

  QueryBatch q = sample_queries(2, 200);
  auto qfut = server.submit_queries(q);
  UpdateRequest u;
  u.batch = forest::make_delete_batch(f_, 10, 55);
  auto ufut = server.submit_update(std::move(u));
  ASSERT_TRUE(server.step());

  // Queries coalesced into the same epoch as the update are answered at
  // the pinned pre-update version.
  QueryResult r = qfut.get();
  EXPECT_EQ(r.version, 0u);
  expect_matches(q, r, f_, std::vector<Weight>(kN, 1));

  UpdateResult ur = ufut.get();
  EXPECT_EQ(ur.version, 1u);
  EXPECT_EQ(server.version(), 1u);

  // Post-update queries see the edited forest...
  forest::Forest f1 =
      forest::apply_change_set(f_, forest::make_delete_batch(f_, 10, 55));
  QueryBatch q1 = sample_queries(3, 200);
  auto qfut1 = server.submit_queries(q1);
  ASSERT_TRUE(server.step());
  QueryResult r1 = qfut1.get();
  EXPECT_EQ(r1.version, 1u);
  expect_matches(q1, r1, f1, std::vector<Weight>(kN, 1));

  // ...while the handle pinned before the update still answers version 0.
  EXPECT_EQ(pinned0.version(), 0u);
  for (std::size_t i = 0; i < q.roots.size(); ++i) {
    ASSERT_EQ(pinned0->root(q.roots[i]), forest::root_of(f_, q.roots[i]));
  }
}

TEST_F(ServiceTest, UntrustedIdsGetSentinels) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  QueryBatch q;
  q.roots = {static_cast<VertexId>(kN + 1000), 0};
  q.connected = {{static_cast<VertexId>(kN + 7), 0}};
  q.tree_weights = {static_cast<VertexId>(kN + 99)};
  auto fut = server.submit_queries(std::move(q));
  ASSERT_TRUE(server.step());
  QueryResult r = fut.get();
  EXPECT_EQ(r.roots[0], kNoVertex);
  EXPECT_EQ(r.roots[1], forest::root_of(f_, 0));
  EXPECT_EQ(r.connected[0], 0);
  EXPECT_EQ(r.tree_weights[0], 0);
}

TEST_F(ServiceTest, InvalidUpdateBatchIsRejected) {
  BatchServer server(*c_);  // validate_updates defaults on
  UpdateRequest bad;
  bad.batch.del_vertex(static_cast<VertexId>(kN + 5));  // absent vertex
  auto fut = server.submit_update(std::move(bad));
  ASSERT_TRUE(server.step());
  EXPECT_THROW(fut.get(), std::invalid_argument);
  EXPECT_EQ(server.version(), 0u) << "rejected batch must not publish";
  EXPECT_EQ(server.stats().updates_rejected, 1u);

  // The server keeps serving after a rejection.
  UpdateRequest ok;
  ok.batch = forest::make_delete_batch(f_, 4, 77);
  auto fut2 = server.submit_update(std::move(ok));
  ASSERT_TRUE(server.step());
  EXPECT_EQ(fut2.get().version, 1u);
}

TEST_F(ServiceTest, VertexWeightsApplyWithTheirEpoch) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  hashing::SplitMix64 rng(9);
  const VertexId v = static_cast<VertexId>(rng.next_below(kN));

  UpdateRequest u;  // weight-only update: empty structural batch
  u.vertex_weights.push_back({v, 100});
  auto ufut = server.submit_update(std::move(u));
  ASSERT_TRUE(server.step());
  EXPECT_EQ(ufut.get().version, 1u);

  QueryBatch q;
  q.tree_weights = {v};
  auto qfut = server.submit_queries(std::move(q));
  ASSERT_TRUE(server.step());
  std::vector<Weight> w(kN, 1);
  w[v] = 100;
  Weight want = 0;
  for (VertexId x = 0; x < kN; ++x) {
    if (forest::root_of(f_, x) == forest::root_of(f_, v)) want += w[x];
  }
  EXPECT_EQ(qfut.get().tree_weights[0], want);
}

TEST_F(ServiceTest, SnapshotSatisfiesBatchQueryViewConcept) {
  // The same templated batch entry points that serve the live RCForest
  // accept a pinned Snapshot.
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  const SnapshotHandle snap = server.snapshot();
  std::vector<VertexId> qs;
  for (VertexId v = 0; v < kN; v += 11) qs.push_back(v);
  std::vector<VertexId> roots = rc::batch_roots(*snap, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(roots[i], forest::root_of(f_, qs[i]));
  }
}

TEST_F(ServiceTest, SteadyStateRecyclesSnapshotBuffers) {
  ServiceConfig cfg;
  cfg.validate_updates = false;
  BatchServer server(*c_, cfg, std::vector<Weight>(kN, 1));
  forest::Forest cur = f_;
  for (int step = 0; step < 6; ++step) {
    UpdateRequest u;
    u.batch = forest::make_delete_batch(cur, 2, 200 + step);
    cur = forest::apply_change_set(cur, u.batch);
    auto fut = server.submit_update(std::move(u));
    ASSERT_TRUE(server.step());
    fut.get();
  }
  const ServiceStats s = server.stats();
  EXPECT_EQ(s.snapshots_published, 7u);  // initial + 6 updates
  EXPECT_LE(s.snapshot_buffers_allocated, 2u)
      << "steady state must recycle the double buffer, not allocate";
  EXPECT_GE(s.snapshot_buffers_reused, 5u);
}

// Entry-by-entry equality of every table of two snapshots; names the
// first differing entry.
::testing::AssertionResult same_tables(const Snapshot& got,
                                       const Snapshot& want) {
  if (got.version != want.version) {
    return ::testing::AssertionFailure()
           << "version " << got.version << " != " << want.version;
  }
  if (got.events.size() != want.events.size() ||
      got.weights.size() != want.weights.size() ||
      got.accumulators.size() != want.accumulators.size()) {
    return ::testing::AssertionFailure() << "table sizes differ";
  }
  for (std::size_t v = 0; v < got.events.size(); ++v) {
    const rc::Event& a = got.events[v];
    const rc::Event& b = want.events[v];
    if (a.kind != b.kind || a.round != b.round || a.into != b.into ||
        a.over != b.over) {
      return ::testing::AssertionFailure() << "event of vertex " << v;
    }
  }
  for (std::size_t v = 0; v < got.weights.size(); ++v) {
    if (got.weights[v] != want.weights[v]) {
      return ::testing::AssertionFailure() << "weight of vertex " << v;
    }
    if (got.accumulators[v] != want.accumulators[v]) {
      return ::testing::AssertionFailure() << "accumulator of vertex " << v;
    }
  }
  return ::testing::AssertionSuccess();
}

// The differential check of publication: after every update, the served
// snapshot equals, table by table, (a) assign_from of derived layers
// rebuilt over the live structure and (b) a from-scratch construct +
// RCForest + TreeAggregate of an oracle forest at that version. The
// history drives both publish paths — patches in steady state, full
// copies for the first versions, while a reader pins the recycled buffer,
// when V+ grows the capacity and around a large batch — and asserts which
// one each version took.
TEST_F(ServiceTest, EveryPublishedVersionEqualsFromScratchBuild) {
  std::vector<Weight> w(kN);
  for (VertexId v = 0; v < kN; ++v) w[v] = static_cast<Weight>(v % 7) + 1;
  BatchServer server(*c_, {}, w);
  forest::Forest model = f_;

  auto expect_matches_scratch = [&](const Snapshot& snap) {
    const rc::RCForest live_rc(*c_);
    const rc::TreeAggregate<Weight> live_agg(live_rc, w);
    Snapshot live;
    live.assign_from(live_rc, &live_agg, snap.version);
    EXPECT_TRUE(same_tables(snap, live)) << "vs live, v" << snap.version;

    contract::ContractionForest scratch(model.capacity(), 4, 3);
    contract::construct(scratch, model);
    const rc::RCForest scratch_rc(scratch);
    const rc::TreeAggregate<Weight> scratch_agg(scratch_rc, w);
    Snapshot oracle;
    oracle.assign_from(scratch_rc, &scratch_agg, snap.version);
    EXPECT_TRUE(same_tables(snap, oracle)) << "vs scratch, v" << snap.version;
  };

  // Applies one update, mirrors it on the model, checks the published
  // version, and checks that it patched iff `patch`.
  std::uint64_t version = 0;
  auto step = [&](forest::ChangeSet batch,
                  std::vector<std::pair<VertexId, Weight>> weights,
                  bool patch, const std::string& what) {
    SCOPED_TRACE(what);
    const std::uint64_t patches = server.stats().snapshot_patches;
    model = forest::apply_change_set(model, batch);
    w.resize(model.capacity(), 0);
    for (const auto& [v, wt] : weights) {
      if (model.present(v)) w[v] = wt;
    }
    UpdateRequest u;
    u.batch = std::move(batch);
    u.vertex_weights = std::move(weights);
    auto fut = server.submit_update(std::move(u));
    ASSERT_TRUE(server.step());
    ASSERT_EQ(fut.get().version, ++version);
    EXPECT_EQ(server.stats().snapshot_patches - patches, patch ? 1u : 0u)
        << "v" << version;
    expect_matches_scratch(*server.snapshot());
  };

  expect_matches_scratch(*server.snapshot());
  // Cuts and links. Versions 0 and 1 find no buffer two versions old;
  // every later small update patches.
  std::vector<Edge> cut;
  for (int i = 0; i < 8; ++i) {
    forest::ChangeSet b;
    if (i % 3 == 2) {
      b.ins_edge(cut.back().child, cut.back().parent);
      cut.pop_back();
    } else {
      b = forest::make_delete_batch(model, 1, 100 + i);
      cut.push_back(b.remove_edges[0]);
    }
    step(std::move(b), {}, /*patch=*/i >= 1, "cut/link " + std::to_string(i));
  }

  // Weight-only updates: the changed ids are the reweighted chains alone.
  for (int i = 0; i < 3; ++i) {
    const VertexId v = static_cast<VertexId>(37 * i + 5);
    step({}, {{v, 1000 + i}}, true, "weight " + std::to_string(i));
  }

  // Vertex removals and re-adds, with new weights on the way back.
  const forest::ChangeSet removal = forest::make_vertex_batch(model, 0, 2, 9);
  step(removal, {}, true, "remove vertices");
  forest::ChangeSet readd;
  for (VertexId v : removal.remove_vertices) readd.ins_vertex(v);
  for (const Edge& e : removal.remove_edges) readd.ins_edge(e.child, e.parent);
  step(readd, {{removal.remove_vertices[0], 50}}, true, "re-add vertices");

  // A reader pins the front buffer across several versions. While it is
  // pinned, every other publish finds no recycled buffer and copies.
  {
    const SnapshotHandle held = server.snapshot();
    const Snapshot held_copy = *held;
    for (int i = 0; i < 4; ++i) {
      forest::ChangeSet b;
      if (i % 2 == 0) {
        b = forest::make_delete_batch(model, 1, 300 + i);
        cut.push_back(b.remove_edges[0]);
      } else {
        b.ins_edge(cut.back().child, cut.back().parent);
        cut.pop_back();
      }
      step(std::move(b), {{static_cast<VertexId>(11 * i), 7}}, i % 2 == 0,
           "pinned reader " + std::to_string(i));
    }
    EXPECT_EQ(held.version(), held_copy.version);
    EXPECT_TRUE(same_tables(*held, held_copy)) << "a pinned version changed";
  }

  // V+ beyond the initial capacity: tables grow, so this version and the
  // next (its recycled buffer still has the old size) copy everything.
  VertexId leaf = 0;
  while (!model.present(leaf) || !model.is_leaf(leaf)) ++leaf;
  const auto a = static_cast<VertexId>(kN);
  const auto b = static_cast<VertexId>(kN + 3);
  forest::ChangeSet grow;
  grow.ins_vertex(a).ins_vertex(b).ins_edge(b, a).ins_edge(a, leaf);
  step(std::move(grow), {{a, 40}, {b, 60}}, false, "grow capacity");
  step({}, {{b, 61}}, false, "after growth");
  step(forest::make_delete_batch(model, 1, 400), {}, true, "steady again");
  forest::ChangeSet drop_new;
  drop_new.del_edge(b, a).del_vertex(b);
  step(std::move(drop_new), {}, true, "remove a grown id");

  // One large batch: its changed ids exceed the patch rule, so it and the
  // version after it copy every table; then patching resumes.
  const forest::ChangeSet large = forest::make_delete_batch(model, 300, 500);
  step(large, {}, false, "large batch");
  forest::ChangeSet relink;
  for (const Edge& e : large.remove_edges) relink.ins_edge(e.child, e.parent);
  step(std::move(relink), {}, false, "large re-link");
  step({}, {{a, 41}}, false, "after large");
  step(forest::make_delete_batch(model, 1, 600), {}, true, "steady at end");

  const ServiceStats s = server.stats();
  EXPECT_EQ(s.snapshots_published, version + 1);
  EXPECT_GT(s.snapshot_patches, 0u);
  EXPECT_LT(s.snapshot_patches, s.snapshots_published);
}

// One invalid batch per precondition family, against `model`.
std::vector<std::pair<std::string, forest::ChangeSet>> invalid_batches(
    const forest::Forest& model) {
  // v: a non-root vertex with a child u and parent p, in the tree of r1;
  // x2: a vertex of another tree, rooted at r2; q: a vertex of largest
  // degree.
  VertexId v = 0;
  while (!model.present(v) || model.is_root(v) || model.is_leaf(v)) ++v;
  const VertexId p = model.parent(v);
  VertexId u = kNoVertex;
  for (VertexId c : model.children(v)) {
    if (c != kNoVertex) u = c;
  }
  const VertexId r1 = forest::root_of(model, v);
  VertexId x2 = 0;
  while (!model.present(x2) || forest::root_of(model, x2) == r1) ++x2;
  const VertexId r2 = forest::root_of(model, x2);
  VertexId q = 0;
  for (VertexId w = 0; w < model.capacity(); ++w) {
    if (model.present(w) && model.degree(w) > model.degree(q)) q = w;
  }
  const auto cap = static_cast<VertexId>(model.capacity());

  std::vector<std::pair<std::string, forest::ChangeSet>> out;
  auto add = [&](std::string what) {
    out.emplace_back(std::move(what), forest::ChangeSet{});
    return &out.back().second;
  };
  add("V- absent, beyond the capacity")->del_vertex(cap + 5);
  add("V- keeps its edges")->del_vertex(v);
  add("V+ already present")->ins_vertex(r1);
  // Regression: kNoVertex is the empty-slot sentinel. Admitted as a V+
  // id, DynamicUpdater::apply would call ensure_capacity(2^32), throw
  // and halt every later update (the valid batch after the table).
  add("V+ is kNoVertex")->ins_vertex(kNoVertex).ins_edge(kNoVertex, r2);
  add("E- not in the forest")->del_edge(v, x2);
  add("duplicate E-")->del_edge(v, p).del_edge(v, p);
  add("E+ endpoint beyond the capacity")->ins_edge(r2, cap + 9);
  add("self-loop")->ins_edge(r2, r2);
  add("second parent")->ins_edge(v, x2);
  forest::ChangeSet* full = add("degree overflow");
  for (int i = model.degree(q); i <= model.degree_bound(); ++i) {
    const auto id = static_cast<VertexId>(cap + i);
    full->ins_vertex(id).ins_edge(id, q);
  }
  add("cross-tree cycle")->ins_edge(r1, x2).ins_edge(r2, v);
  add("in-tree cycle")->ins_edge(r1, v);
  add("subtree moved into itself")->del_edge(v, p).ins_edge(v, u);
  return out;
}

// Every invalid batch, submitted through step(), rejects its future with
// std::invalid_argument, leaves the version alone and is counted. Then a
// valid batch (a bounce, which takes the exact path, plus a cross-tree
// link) publishes a version equal to a from-scratch build of `model`.
void expect_rejections_then_apply(BatchServer& server, forest::Forest& model,
                                  std::uint64_t coin_seed,
                                  const std::vector<Weight>& w) {
  const std::uint64_t version = server.version();
  const std::uint64_t rejected = server.stats().updates_rejected;
  const auto cases = invalid_batches(model);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [what, batch] = cases[i];
    SCOPED_TRACE(what);
    ASSERT_TRUE(forest::check_change_set(model, batch).has_value());
    UpdateRequest u;
    u.batch = batch;
    auto fut = server.submit_update(std::move(u));
    ASSERT_TRUE(server.step());
    EXPECT_THROW(fut.get(), std::invalid_argument);
    EXPECT_EQ(server.version(), version);
    EXPECT_EQ(server.stats().updates_rejected, rejected + i + 1);
  }

  VertexId v = 0;
  while (!model.present(v) || model.is_root(v)) ++v;
  VertexId leaf = 0;
  while (!model.present(leaf) || !model.is_leaf(leaf) ||
         forest::root_of(model, leaf) != forest::root_of(model, v)) {
    ++leaf;
  }
  VertexId other = 0;
  while (!model.present(other) ||
         forest::root_of(model, other) == forest::root_of(model, v)) {
    ++other;
  }
  forest::ChangeSet valid;
  valid.del_edge(v, model.parent(v)).ins_edge(v, model.parent(v));
  valid.ins_edge(forest::root_of(model, other), leaf);
  ASSERT_FALSE(forest::check_change_set(model, valid).has_value());
  model = forest::apply_change_set(model, valid);

  const std::uint64_t fallbacks = server.stats().validate_fallbacks;
  UpdateRequest u;
  u.batch = std::move(valid);
  auto fut = server.submit_update(std::move(u));
  ASSERT_TRUE(server.step());
  ASSERT_EQ(fut.get().version, version + 1);
  EXPECT_EQ(server.stats().validate_fallbacks, fallbacks + 1);
  if constexpr (contract::kStatsEnabled) {
    EXPECT_GT(server.stats().validate_seconds, 0.0);
  }

  contract::ContractionForest scratch(model.capacity(), 4, coin_seed);
  contract::construct(scratch, model);
  const rc::RCForest scratch_rc(scratch);
  const rc::TreeAggregate<Weight> scratch_agg(scratch_rc, w);
  Snapshot oracle;
  oracle.assign_from(scratch_rc, &scratch_agg, version + 1);
  EXPECT_TRUE(same_tables(*server.snapshot(), oracle));
}

TEST_F(ServiceTest, InvalidBatchesAreRejectedByCategory) {
  std::vector<Weight> w(kN);
  for (VertexId v = 0; v < kN; ++v) w[v] = static_cast<Weight>(v % 5) + 1;
  {
    SCOPED_TRACE("fresh server");
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f_);
    BatchServer server(c, {}, w);
    forest::Forest model = f_;
    expect_rejections_then_apply(server, model, 3, w);
  }

  // The same contract on a server BatchServer::recover returns, which
  // serves a structure loaded from a checkpoint plus the WAL tail.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "parct_service_rejections";
  fs::remove_all(dir);
  fs::create_directories(dir);
  forest::Forest model = f_;
  {
    durability::Manager mgr(dir.string());
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f_);
    mgr.checkpoint(c, w, 0);
    ServiceConfig cfg;
    cfg.durability = &mgr;
    BatchServer server(c, cfg, w);
    UpdateRequest u;
    u.batch = forest::make_delete_batch(model, 3, 91);
    model = forest::apply_change_set(model, u.batch);
    auto fut = server.submit_update(std::move(u));
    ASSERT_TRUE(server.step());
    ASSERT_EQ(fut.get().version, 1u);
    if constexpr (contract::kStatsEnabled) {
      EXPECT_GT(server.stats().wal_seconds, 0.0);
    }
  }  // crash: no final checkpoint
  {
    SCOPED_TRACE("recovered server");
    RecoveredServer rec = BatchServer::recover(dir.string());
    ASSERT_EQ(rec.version, 1u);
    expect_rejections_then_apply(*rec.server, model, rec.forest->seed(), w);
  }
  fs::remove_all(dir);
}

TEST_F(ServiceTest, EngineThreadServesSubmittersEndToEnd) {
  for (const bool overlap : {false, true}) {
    // Fresh structure per run: the previous server's updates mutated it.
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f_);
    ServiceConfig cfg;
    cfg.overlap_updates = overlap;
    BatchServer server(c, cfg, std::vector<Weight>(kN, 1));
    server.start();

    // Interleave query and update submissions; track the forest at every
    // version so each result can be checked at the version it reports.
    std::vector<forest::Forest> at_version = {f_};
    std::vector<std::pair<QueryBatch, std::future<QueryResult>>> qfuts;
    std::vector<std::future<UpdateResult>> ufuts;
    for (int i = 0; i < 12; ++i) {
      QueryBatch q = sample_queries(400 + i, 120);
      qfuts.emplace_back(q, server.submit_queries(q));
      if (i % 3 == 1) {
        UpdateRequest u;
        u.batch = forest::make_delete_batch(at_version.back(), 5, 600 + i);
        at_version.push_back(
            forest::apply_change_set(at_version.back(), u.batch));
        ufuts.push_back(server.submit_update(std::move(u)));
      }
    }
    server.stop();  // drains everything admitted above

    std::uint64_t expect_version = 1;
    for (auto& uf : ufuts) {
      EXPECT_EQ(uf.get().version, expect_version++) << "overlap=" << overlap;
    }
    const std::vector<Weight> w(kN, 1);
    for (auto& [q, fut] : qfuts) {
      QueryResult r = fut.get();
      ASSERT_LT(r.version, at_version.size());
      expect_matches(q, r, at_version[r.version], w);
    }
    EXPECT_THROW(server.submit_queries(QueryBatch{}), std::runtime_error)
        << "submit after stop() must fail fast";

    const ServiceStats s = server.stats();
    EXPECT_EQ(s.updates_applied, ufuts.size());
    EXPECT_EQ(s.queries_served, 12u * 3u * 120u);
  }
}

TEST_F(ServiceTest, ConcurrentStopIsSafe) {
  // Regression (found by the thread-safety annotation pass): stop() used
  // to read and join engine_ without holding mu_, racing the handle
  // against start()'s write and letting two concurrent stop() calls both
  // observe a joinable thread and double-join (std::terminate). stop()
  // now moves the handle out under the lock, so exactly one caller joins
  // and every other call is an idempotent no-op.
  for (int round = 0; round < 8; ++round) {
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f_);
    BatchServer server(c, ServiceConfig{}, std::vector<Weight>(kN, 1));
    server.start();
    auto fut = server.submit_queries(sample_queries(900 + round, 64));

    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&server] { server.stop(); });
    }
    for (std::thread& th : stoppers) th.join();

    // The admitted batch resolved either way — served by the drain, or
    // rejected with ServerStopped — never left dangling.
    try {
      (void)fut.get();
    } catch (const ServerStopped&) {
    }
    EXPECT_THROW(server.submit_queries(QueryBatch{}), ServerStopped);
  }
}

TEST_F(ServiceTest, StepModeStopRejectsQueuedFutures) {
  // Guard on the ConcurrentStopIsSafe contract across the durability
  // refactors: in step() mode there is no engine thread to drain the
  // queues, so stop() itself must reject everything still admitted with
  // ServerStopped — no future survives stop() unresolved.
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  auto q1 = server.submit_queries(sample_queries(50, 32));
  auto q2 = server.submit_queries(sample_queries(51, 32));
  UpdateRequest u;
  u.batch = forest::make_delete_batch(f_, 3, 52);
  auto uf = server.submit_update(std::move(u));
  server.stop();  // no step() ran: all three are still queued
  EXPECT_THROW(q1.get(), ServerStopped);
  EXPECT_THROW(q2.get(), ServerStopped);
  EXPECT_THROW(uf.get(), ServerStopped);
  EXPECT_THROW(server.submit_queries(QueryBatch{}), ServerStopped);
}

}  // namespace
}  // namespace parct::service
