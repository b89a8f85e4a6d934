// Chaos-kill recovery soak (docs/DURABILITY.md): for every durability
// fault site and schedule shape, drive a checkpointing BatchServer through
// a seeded update workload while faults fire at a sync (fsync, fdatasync
// or a directory fsync), at the rename that commits a checkpoint or a WAL
// segment, and mid-WAL-append (a genuinely torn tail record), then kill
// the server without any clean shutdown and recover the directory.
//
// The acceptance invariant is durable-before-ack: recovery must land at a
// version V with  max(acked versions) <= V <= (updates applied in memory),
// and the recovered state must answer root / connectivity / tree-weight
// queries exactly like the oracle chain at version V. A torn or unsynced
// tail record may legitimately be dropped (it was never acknowledged) or
// kept (it reached the page cache) — anything else is a bug.
//
// Like tests/chaos_test.cpp, this is substantive only under
// -DPARCT_FAULT_INJECT=ON and skips otherwise; a failing schedule prints a
// PARCT_CHAOS_SPEC replay line via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "contraction/construct.hpp"
#include "durability/manager.hpp"
#include "fault/fault_injection.hpp"
#include "forest/generators.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "service/batch_server.hpp"

namespace parct::service {
namespace {

#if !PARCT_FAULT_INJECT

TEST(DurabilityChaos, RequiresFaultInjectBuild) {
  GTEST_SKIP() << "built without PARCT_FAULT_INJECT; the durability "
                  "chaos-kill schedules run in the fault-injection CI job";
}

#else  // PARCT_FAULT_INJECT

namespace fs = std::filesystem;

constexpr std::size_t kN = 500;
constexpr int kUpdates = 18;

constexpr fault::Site kDurabilitySites[] = {
    fault::Site::kDurabilityFsync,
    fault::Site::kDurabilityRename,
    fault::Site::kWalAppend,
};

class DurabilityChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    par::scheduler::initialize(4);
    dir_ = fs::path(::testing::TempDir()) /
           ("parct_durability_chaos_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
  }
  void TearDown() override {
    fault::disarm();
    fs::remove_all(dir_);
    par::scheduler::initialize(1);
  }

  std::string fresh_dir() {
    const fs::path d = dir_ / std::to_string(run_++);
    fs::remove_all(d);
    fs::create_directories(d);
    return d.string();
  }

  fs::path dir_;
  int run_ = 0;
};

// Oracle chain indexed by version: the plain forest and the weight table
// after each update that actually applied in memory (acked or not).
struct Oracle {
  std::vector<forest::Forest> at;
  std::vector<std::vector<Weight>> w_at;

  void apply(const forest::ChangeSet& batch,
             const std::pair<VertexId, Weight>& assign) {
    at.push_back(forest::apply_change_set(at.back(), batch));
    std::vector<Weight> w = w_at.back();
    if (assign.first < at.back().capacity() &&
        at.back().present(assign.first)) {
      w[assign.first] = assign.second;
    }
    w_at.push_back(std::move(w));
  }
};

void run_kill_recover(const fault::Plan& plan, const std::string& dir) {
  SCOPED_TRACE("replay: PARCT_CHAOS_SPEC='" + fault::format_plan(plan) +
               "'");
  forest::Forest f =
      forest::random_forest(kN, 6, 4, 0.4, plan.seed % 997 + 5);
  auto c = std::make_unique<contract::ContractionForest>(
      kN, 4, plan.seed ^ 0x5EED);
  contract::construct(*c, f);

  auto mgr = std::make_unique<durability::Manager>(dir);
  mgr->checkpoint(*c, std::vector<Weight>(kN, 1), 0);
  ServiceConfig cfg;
  cfg.durability = mgr.get();
  cfg.checkpoint_every = 4;
  auto server =
      std::make_unique<BatchServer>(*c, cfg, std::vector<Weight>(kN, 1));

  fault::arm(plan);

  // Batches are generated against the chain as if every update landed;
  // delete batches stay valid when an earlier one was rejected, and the
  // oracle below applies only the batches that actually reached the
  // structure.
  forest::Forest hypothetical = f;
  struct Submitted {
    forest::ChangeSet batch;
    std::pair<VertexId, Weight> assign;
    std::future<UpdateResult> fut;
  };
  std::vector<Submitted> subs;
  for (int i = 0; i < kUpdates; ++i) {
    forest::ChangeSet batch =
        forest::make_delete_batch(hypothetical, 3, plan.seed * 100 + i);
    hypothetical = forest::apply_change_set(hypothetical, batch);
    UpdateRequest u;
    u.batch = batch;
    const std::pair<VertexId, Weight> assign = {
        static_cast<VertexId>((i * 37) % kN), static_cast<Weight>(i + 2)};
    u.vertex_weights.push_back(assign);
    auto fut = server->submit_update(std::move(u));
    subs.push_back({std::move(batch), assign, std::move(fut)});
    server->step();
  }
  while (server->step()) {
  }
  // The workload must actually have reached the armed sites — guards
  // against a wiring change that silently stops evaluating them.
  EXPECT_GT(fault::hits(fault::Site::kWalAppend) +
                fault::hits(fault::Site::kDurabilityFsync),
            0u);
  fault::disarm();

  // Classify every future and reconstruct the applied chain. A successful
  // future acks its version; DurabilityLost means the update applied in
  // memory but was never acknowledged (its WAL record may be torn); any
  // other rejection (updates halted after fail-stop, admission drop) means
  // the batch never touched the structure.
  Oracle oracle;
  oracle.at = {f};
  oracle.w_at = {std::vector<Weight>(kN, 1)};
  std::uint64_t max_acked = 0;
  for (Submitted& s : subs) {
    bool applied = false;
    try {
      const UpdateResult ur = s.fut.get();
      ASSERT_EQ(ur.version, oracle.at.size())
          << "versions must advance by one per applied update";
      max_acked = ur.version;
      applied = true;
    } catch (const DurabilityLost&) {
      applied = true;  // applied in memory, not durable, not acked
    } catch (const std::runtime_error&) {
      // updates halted after fail-stop / admission drop: never applied
    }
    if (applied) oracle.apply(s.batch, s.assign);
  }

  // Kill: no stop-side checkpoint, no log close — the directory is
  // whatever the faults left behind.
  server.reset();
  mgr.reset();
  c.reset();

  RecoveredServer rec = BatchServer::recover(dir);
  const std::uint64_t applied = oracle.at.size() - 1;
  ASSERT_GE(rec.version, max_acked)
      << "recovery lost an acknowledged update";
  ASSERT_LE(rec.version, applied)
      << "recovery invented a version beyond the applied history";
  EXPECT_EQ(rec.server->version(), rec.version);
  EXPECT_EQ(rec.server->stats().recovery_replayed, rec.replayed);

  // Differential check at exactly the recovered version: roots,
  // connectivity, and tree weights against the oracle chain.
  const forest::Forest& want = oracle.at[rec.version];
  const std::vector<Weight>& ww = oracle.w_at[rec.version];
  std::vector<Weight> component(kN, 0);
  for (VertexId v = 0; v < kN; ++v) {
    if (want.present(v)) component[forest::root_of(want, v)] += ww[v];
  }
  QueryBatch q;
  for (VertexId v = 0; v < kN; ++v) {
    q.roots.push_back(v);
    q.connected.push_back({v, static_cast<VertexId>((v * 7 + 1) % kN)});
    q.tree_weights.push_back(v);
  }
  auto qfut = rec.server->submit_queries(q);
  ASSERT_TRUE(rec.server->step());
  const QueryResult r = qfut.get();
  EXPECT_EQ(r.version, rec.version);
  for (std::size_t i = 0; i < q.roots.size(); ++i) {
    ASSERT_EQ(r.roots[i], forest::root_of(want, q.roots[i]))
        << "root mismatch at recovered version " << rec.version;
    ASSERT_EQ(r.connected[i] != 0,
              forest::root_of(want, q.connected[i].first) ==
                  forest::root_of(want, q.connected[i].second))
        << "connectivity mismatch at recovered version " << rec.version;
    ASSERT_EQ(r.tree_weights[i],
              component[forest::root_of(want, q.tree_weights[i])])
        << "tree weight mismatch at recovered version " << rec.version;
  }

  // The recovered incarnation must itself be durable: apply one more
  // update, kill again, and recover past it.
  UpdateRequest u;
  u.batch = forest::make_delete_batch(want, 2, plan.seed + 31337);
  auto ufut = rec.server->submit_update(std::move(u));
  ASSERT_TRUE(rec.server->step());
  EXPECT_EQ(ufut.get().version, rec.version + 1);
  const std::uint64_t next = rec.version + 1;
  rec.server->stop();
  rec.server.reset();
  rec.manager.reset();
  EXPECT_EQ(durability::Manager::recover(dir).version, next);
}

fault::SiteSchedule make_schedule(fault::Mode mode, hashing::SplitMix64& g) {
  fault::SiteSchedule s;
  s.mode = mode;
  // Durability sites see few hits per run (one sync per record, four per
  // checkpoint, two renames per checkpoint), so keep the first firing
  // index small enough that the schedule actually fires mid-history.
  s.at = g.next_below(6);
  s.every = 1 + g.next_below(4);
  s.len = 1 + g.next_below(3);
  return s;
}

TEST_F(DurabilityChaos, KillAtEverySiteUnderEveryMode) {
  const std::uint64_t base_seed = static_cast<std::uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
  for (const fault::Site site : kDurabilitySites) {
    for (const fault::Mode mode :
         {fault::Mode::kOnce, fault::Mode::kPeriodic, fault::Mode::kBurst}) {
      fault::Plan plan;
      plan.seed = base_seed * 31 + static_cast<unsigned>(site) * 5 +
                  static_cast<unsigned>(mode);
      hashing::SplitMix64 g(plan.seed);
      plan[site] = make_schedule(mode, g);
      run_kill_recover(plan, fresh_dir());
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(DurabilityChaos, AllDurabilitySitesCombined) {
  fault::Plan plan;
  plan.seed = 90210;
  hashing::SplitMix64 g(plan.seed);
  plan[fault::Site::kDurabilityFsync] =
      make_schedule(fault::Mode::kPeriodic, g);
  plan[fault::Site::kDurabilityRename] =
      make_schedule(fault::Mode::kOnce, g);
  plan[fault::Site::kWalAppend] = make_schedule(fault::Mode::kBurst, g);
  run_kill_recover(plan, fresh_dir());
}

TEST_F(DurabilityChaos, FailedSegmentRotationNeverLosesAckedUpdates) {
  // The schedule a lost acknowledged update was first reported with: a
  // checkpoint committed, then the new segment's creation failed, and
  // later acknowledged records went to a segment its base fenced off.
  run_kill_recover(fault::parse_plan("seed=4269;durability-fsync:once@27"),
                   fresh_dir());
}

TEST_F(DurabilityChaos, SyncFailureAtEveryHitNeverLosesAckedUpdates) {
  // One failing sync at each hit of a full run in turn: every in-place
  // (fdatasync) append, and every checkpoint's syncs — its temp file and
  // directory, then the new segment's temp file and, after the segment's
  // rename, the directory again.
  std::uint64_t k = 0;
  for (;; ++k) {
    fault::Plan plan;
    plan.seed = 4269;
    plan[fault::Site::kDurabilityFsync] = {fault::Mode::kOnce, k, 1, 1};
    run_kill_recover(plan, fresh_dir());
    if (HasFatalFailure()) return;
    if (fault::fired(fault::Site::kDurabilityFsync) == 0) break;
  }
  // Past the last hit: at least one sync per update plus the rotations.
  EXPECT_GT(k, static_cast<std::uint64_t>(kUpdates));
}

TEST_F(DurabilityChaos, RotationFailingBeforeItsRenameKeepsTheOpenSegment) {
  const std::string dir = fresh_dir();
  durability::Manager mgr(dir);
  mgr.open_log(0);
  {
    // Asking again for the empty segment already open creates nothing.
    fault::Plan plan;
    plan[fault::Site::kDurabilityFsync] = {fault::Mode::kOnce, 0, 1, 1};
    fault::arm(plan);
    EXPECT_NO_THROW(mgr.open_log(0));
    EXPECT_EQ(fault::hits(fault::Site::kDurabilityFsync), 0u);
    fault::disarm();
  }
  forest::ChangeSet batch;
  batch.del_edge(3, 1);
  mgr.append(1, batch, {});
  for (const fault::Site site :
       {fault::Site::kDurabilityFsync, fault::Site::kDurabilityRename}) {
    // Creating a segment first syncs its .tmp, then renames it.
    fault::Plan plan;
    plan[site] = {fault::Mode::kOnce, 0, 1, 1};
    fault::arm(plan);
    EXPECT_THROW(mgr.open_log(1), fault::InjectedFault);
    fault::disarm();
    EXPECT_FALSE(fs::exists(dir + "/" + durability::wal_filename(1)));
    EXPECT_TRUE(fs::exists(dir + "/" + durability::wal_filename(1) + ".tmp"));
  }
  // The open segment still takes records, and they read back whole.
  mgr.append(2, batch, {});
  const durability::SegmentContents seg =
      durability::read_wal_segment(dir + "/" + durability::wal_filename(0));
  EXPECT_TRUE(seg.clean);
  ASSERT_EQ(seg.records.size(), 2u);
  EXPECT_EQ(seg.records.back().version, 2u);
}

TEST_F(DurabilityChaos, RotationFailingAfterItsRenameClosesTheLog) {
  const std::string dir = fresh_dir();
  durability::Manager mgr(dir);
  mgr.open_log(0);
  forest::ChangeSet batch;
  batch.del_edge(3, 1);
  mgr.append(1, batch, {});
  // Hit 1 is the directory fsync after the segment's rename: wal-1.log is
  // visible and fences wal-0.log at version 1, so no record may go there.
  fault::Plan plan;
  plan[fault::Site::kDurabilityFsync] = {fault::Mode::kOnce, 1, 1, 1};
  fault::arm(plan);
  EXPECT_THROW(mgr.open_log(1), fault::InjectedFault);
  fault::disarm();
  EXPECT_TRUE(fs::exists(dir + "/" + durability::wal_filename(1)));
  EXPECT_THROW(mgr.append(2, batch, {}), std::runtime_error);
  EXPECT_EQ(mgr.wal_records(), 1u);
  // A later rotation opens the log again.
  mgr.open_log(1);
  mgr.append(2, batch, {});
  EXPECT_EQ(mgr.wal_records(), 2u);
}

TEST_F(DurabilityChaos, TornAppendNeverLosesAckedUpdates) {
  // The sharpest case pinned deterministically: the torn-tail site firing
  // exactly once at each early append. Every acked version must survive
  // recovery no matter which record tears.
  for (std::uint64_t at = 0; at < 5; ++at) {
    fault::Plan plan;
    plan.seed = 7000 + at;
    plan[fault::Site::kWalAppend] = {fault::Mode::kOnce, at, 1, 1};
    run_kill_recover(plan, fresh_dir());
    if (HasFatalFailure()) return;
  }
}

#endif  // PARCT_FAULT_INJECT

}  // namespace
}  // namespace parct::service
