// Tests of the SP-bags determinacy-race detector (analysis/sp_bags.hpp):
// planted races in parallel loops and fork trees MUST be flagged with a
// two-site report, disjoint or serially-separated accesses must stay
// clean, and — the acceptance property — Construct and batched Propagate
// must report zero races across the differential harness's seeded
// workloads. Everything is compiled out (and skipped) when the build does
// not define PARCT_RACE_DETECT=ON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/annotations.hpp"
#include "analysis/sp_bags.hpp"
#include "contraction/construct.hpp"
#include "contraction/contraction_forest.hpp"
#include "contraction/dynamic_update.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "harness/differential.hpp"
#include "harness/workload.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/fork_join.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/pack.hpp"
#include "primitives/scan.hpp"
#include "primitives/workspace.hpp"
#include "service/batch_server.hpp"
#include "service/snapshot.hpp"

namespace parct {
namespace {

#if PARCT_RACE_DETECT

using analysis::spbags::DeterminacyRace;
using analysis::spbags::OnRace;
using analysis::spbags::Session;

class RaceDetectTest : public ::testing::Test {
 protected:
  void SetUp() override { par::scheduler::initialize(1); }
  void TearDown() override { par::scheduler::initialize(1); }
};

TEST_F(RaceDetectTest, PlantedWriteWriteRaceIsFlagged) {
  Session session(OnRace::kThrow);
  std::vector<int> data(64, 0);
  EXPECT_THROW(
      {
        PARCT_SHADOW_BUFFER(buf);
        par::parallel_for(0, data.size(), [&](std::size_t i) {
          // Every iteration writes logical cell 0: a textbook race.
          PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 0));
          data[0] += static_cast<int>(i);
        });
      },
      DeterminacyRace);
  EXPECT_GE(session.races_detected(), 1u);
}

// The adaptive fast path must never hide accesses from the detector: a
// sub-cutover extent would run inline outside a session, but under an
// active session adaptive_for defers to parallel_for's grain-1 fork-tree
// modeling — so a race planted in a region small enough for the serial
// path is still flagged. Pinned at SIZE_MAX, the strongest serial forcing.
TEST_F(RaceDetectTest, PlantedRaceBelowCutoverIsStillFlagged) {
  par::set_serial_cutover(~std::size_t{0});
  Session session(OnRace::kThrow);
  std::vector<int> data(8, 0);
  EXPECT_THROW(
      {
        PARCT_SHADOW_BUFFER(buf);
        par::adaptive_for(0, data.size(), [&](std::size_t i) {
          PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 0));
          data[0] += static_cast<int>(i);
        });
      },
      DeterminacyRace);
  EXPECT_GE(session.races_detected(), 1u);
  par::clear_serial_cutover();
}

TEST_F(RaceDetectTest, PlantedReadWriteRaceIsFlagged) {
  Session session(OnRace::kThrow);
  std::vector<int> data(64, 0);
  EXPECT_THROW(
      {
        PARCT_SHADOW_BUFFER(buf);
        par::parallel_for(0, data.size(), [&](std::size_t i) {
          if (i == 0) {
            PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 7));
            data[7] = 1;
          } else {
            PARCT_SHADOW_READ(analysis::buffer_cell(buf, 7));
            data[i] = data[7];
          }
        });
      },
      DeterminacyRace);
}

TEST_F(RaceDetectTest, DisjointWritesAreClean) {
  Session session(OnRace::kThrow);
  std::vector<int> data(512, 0);
  PARCT_SHADOW_BUFFER(buf);
  par::parallel_for(0, data.size(), [&](std::size_t i) {
    PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, i));
    data[i] = static_cast<int>(i);
  });
  EXPECT_EQ(session.races_detected(), 0u);
  EXPECT_GE(session.procs_created(), data.size());
}

TEST_F(RaceDetectTest, JoinedPhasesAreSerial) {
  // A loop that writes every cell, then (after the implicit join) a loop
  // that reads them all: serial by the fork-join structure, not a race.
  Session session(OnRace::kThrow);
  std::vector<int> data(256, 0);
  PARCT_SHADOW_BUFFER(buf);
  par::parallel_for(0, data.size(), [&](std::size_t i) {
    PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, i));
    data[i] = static_cast<int>(i);
  });
  long sum = 0;
  par::parallel_for(0, data.size(), [&](std::size_t i) {
    PARCT_SHADOW_READ(analysis::buffer_cell(buf, 0));  // everyone reads 0
    sum += data[0];  // benign: loop is serial under the detector
  });
  EXPECT_EQ(session.races_detected(), 0u);
}

TEST_F(RaceDetectTest, SiblingBranchesOfOneForkRace) {
  Session session(OnRace::kThrow);
  int x = 0;
  PARCT_SHADOW_BUFFER(buf);
  EXPECT_THROW(par::fork2join(
                   [&] {
                     PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 0));
                     x = 1;
                   },
                   [&] {
                     PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 0));
                     x = 2;
                   }),
               DeterminacyRace);
}

TEST_F(RaceDetectTest, SequentialForksDoNotRace) {
  Session session(OnRace::kThrow);
  int x = 0;
  PARCT_SHADOW_BUFFER(buf);
  par::fork2join(
      [&] {
        PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 0));
        x = 1;
      },
      [&] {
        PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 1));
        x += 1;  // distinct logical cell
      });
  // The first fork fully joined, so this access is serial with both.
  par::fork2join(
      [&] {
        PARCT_SHADOW_READ(analysis::buffer_cell(buf, 0));
        (void)x;
      },
      [&] {
        PARCT_SHADOW_READ(analysis::buffer_cell(buf, 1));
        (void)x;
      });
  EXPECT_EQ(session.races_detected(), 0u);
}

TEST_F(RaceDetectTest, NestedForkRaceAgainstOuterSibling) {
  Session session(OnRace::kThrow);
  int x = 0;
  PARCT_SHADOW_BUFFER(buf);
  EXPECT_THROW(
      par::fork2join(
          [&] {
            par::fork2join([&] { (void)x; },
                           [&] {
                             PARCT_SHADOW_WRITE(
                                 analysis::buffer_cell(buf, 3));
                             x = 1;
                           });
          },
          [&] {
            // Logically parallel with the nested write above even though
            // the serial execution has already completed it.
            PARCT_SHADOW_READ(analysis::buffer_cell(buf, 3));
            (void)x;
          }),
      DeterminacyRace);
}

TEST_F(RaceDetectTest, ReportNamesBothSitesAndForkPaths) {
  Session session(OnRace::kThrow);
  std::vector<int> data(8, 0);
  std::string report;
  try {
    PARCT_SHADOW_BUFFER(buf);
    par::parallel_for(0, data.size(), [&](std::size_t i) {
      PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 0));
      data[0] = static_cast<int>(i);
    });
  } catch (const DeterminacyRace& e) {
    report = e.what();
  }
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("race_detect_test.cpp"), std::string::npos) << report;
  EXPECT_NE(report.find("write-write"), std::string::npos) << report;
  EXPECT_NE(report.find("main -> "), std::string::npos) << report;
  EXPECT_NE(report.find("buffer #"), std::string::npos) << report;
}

TEST_F(RaceDetectTest, NoSessionMeansNoChecking) {
  // Without a live Session the annotations are inert and the planted race
  // runs (nondeterministically but harmlessly here) to completion.
  std::vector<int> data(64, 0);
  PARCT_SHADOW_BUFFER(buf);
  par::parallel_for(0, data.size(), [&](std::size_t i) {
    PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 0));
    data[i] = static_cast<int>(i);
  });
  SUCCEED();
}

TEST_F(RaceDetectTest, SessionsDoNotNest) {
  Session session(OnRace::kThrow);
  EXPECT_THROW(Session nested(OnRace::kThrow), std::logic_error);
}

TEST_F(RaceDetectTest, ConstructIsRaceFree) {
  Session session(OnRace::kThrow);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    forest::Forest f = forest::build_tree(300, 4, 0.5, seed, 20);
    contract::ContractionForest c(f.capacity(), 4, seed ^ 0xC0DE);
    contract::construct(c, f);
  }
  EXPECT_EQ(session.races_detected(), 0u);
  EXPECT_GT(session.cells_tracked(), 0u);
}

TEST_F(RaceDetectTest, SingleUpdateIsRaceFree) {
  Session session(OnRace::kThrow);
  forest::Forest f = forest::build_tree(400, 4, 0.6, 11, 0);
  contract::ContractionForest c(f.capacity(), 4, 99);
  contract::construct(c, f);
  const forest::ChangeSet m = forest::make_delete_batch(f, 24, 7);
  contract::modify_contraction(c, m);
  EXPECT_EQ(session.races_detected(), 0u);
}

TEST_F(RaceDetectTest, LeaseNoncesAreFreshPerAcquire) {
  // A recycled pool block must get a new logical buffer identity on every
  // acquire; otherwise writes of epoch k+1 would look write-write racy
  // against epoch k's (already joined) writes to the same cells.
  Session session(OnRace::kThrow);
  Workspace ws;
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  {
    auto lease = ws.acquire<std::uint32_t>(64);
    first = lease.shadow_nonce();
  }
  {
    auto lease = ws.acquire<std::uint32_t>(64);  // same block, pooled
    second = lease.shadow_nonce();
  }
  EXPECT_EQ(ws.stats().hits, 1u);  // really was recycled
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, 0u);
  EXPECT_NE(first, second);
}

TEST_F(RaceDetectTest, WorkspaceReuseAcrossEpochsIsRaceFree) {
  // Steady-state pipelines re-lease the same physical blocks every epoch.
  // With fresh nonces per acquire the detector must stay silent across
  // many reuse epochs of the fused scan+pack kernels.
  Session session(OnRace::kThrow);
  Workspace ws;
  std::vector<std::uint64_t> in(20000);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = i * 2654435761u;
  std::vector<std::uint64_t> packed;
  std::vector<std::uint64_t> scanned(in.size());
  for (int epoch = 0; epoch < 4; ++epoch) {
    ws.epoch_reset();
    prim::pack_into(in, [&](std::size_t i) { return (in[i] & 1) == 0; },
                    packed, ws);
    prim::exclusive_scan_into(in.data(), scanned.data(), in.size(), ws);
  }
  EXPECT_EQ(session.races_detected(), 0u);
  EXPECT_GT(ws.stats().hits, 0u);  // the blocks really were reused
}

// The acceptance check: whole harness workloads — construct, every batched
// Propagate, every from-scratch oracle, and the primitive pipelines they
// exercise — run under one detector session per trace with zero races.
TEST_F(RaceDetectTest, HarnessWorkloadsAreRaceFree) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    harness::WorkloadConfig config;
    config.seed = seed;
    config.n = 200;
    config.extra_capacity = 60;
    config.target_ops = 300;
    config.max_batch = 32;
    const harness::Trace t = harness::generate_trace(config);
    harness::RunOptions opts;
    opts.race_detect = true;
    const harness::RunResult r = harness::run_trace(t, opts);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
}

// The serving layer under the detector: step() runs deterministic
// single-threaded epochs designed for exactly this ("including SP-bags
// race-detector sessions", per its contract), so a session wrapped
// around a stepped run audits BatchServer::answer's annotated fan-outs
// over the pinned snapshot plus a full update epoch. Must stay silent.
TEST_F(RaceDetectTest, SteppedServiceEpochsAreRaceFree) {
  forest::Forest f = forest::build_tree(300, 4, 0.5, 17, 0);
  contract::ContractionForest c(f.capacity(), 4, 55);
  contract::construct(c, f);
  service::BatchServer server(c, {},
                              std::vector<service::Weight>(f.capacity(), 1));

  service::QueryBatch q;
  for (VertexId v = 0; v < 300; v += 3) {
    q.roots.push_back(v);
    q.connected.push_back({v, (v + 7) % 300});
    q.tree_weights.push_back(v);
  }
  auto qfut = server.submit_queries(q);
  service::UpdateRequest u;
  u.batch = forest::make_delete_batch(f, 16, 9);
  auto ufut = server.submit_update(std::move(u));

  Session session(OnRace::kThrow);
  while (server.step()) {
  }
  const service::QueryResult r1 = qfut.get();       // answered pre-update
  const service::UpdateResult ur = ufut.get();      // produced r1.version+1
  auto qfut2 = server.submit_queries(q);            // served at new version
  while (server.step()) {
  }
  const service::QueryResult r2 = qfut2.get();
  EXPECT_EQ(session.races_detected(), 0u);
  EXPECT_GT(session.cells_tracked(), 0u);
  EXPECT_EQ(r1.roots.size(), q.roots.size());
  EXPECT_EQ(ur.version, r1.version + 1);
  EXPECT_EQ(r2.version, ur.version);
}

TEST_F(RaceDetectTest, PlantedSnapshotFanoutRaceIsFlagged) {
  // The mistake answer()'s buffer_cell annotations exist to catch: a
  // fan-out over a pinned snapshot that funnels every iteration's result
  // into one shared cell instead of the iteration-owned slot.
  forest::Forest f = forest::build_tree(200, 4, 0.5, 23, 0);
  contract::ContractionForest c(f.capacity(), 4, 77);
  contract::construct(c, f);
  service::BatchServer server(c, {},
                              std::vector<service::Weight>(f.capacity(), 1));
  const service::SnapshotHandle snap = server.snapshot();

  Session session(OnRace::kThrow);
  std::vector<VertexId> out(64, kNoVertex);
  EXPECT_THROW(
      {
        PARCT_SHADOW_BUFFER(buf);
        par::parallel_for(0, out.size(), [&](std::size_t i) {
          PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, 0));
          out[0] = snap->root(static_cast<VertexId>(i));
        });
      },
      DeterminacyRace);
  EXPECT_GE(session.races_detected(), 1u);
}

#else  // !PARCT_RACE_DETECT

TEST(RaceDetectTest, SkippedWithoutRaceDetectBuild) {
  GTEST_SKIP() << "build with -DPARCT_RACE_DETECT=ON to run the SP-bags "
                  "detector tests";
}

TEST(RaceDetectTest, HarnessRefusesRaceDetectWhenCompiledOut) {
  harness::WorkloadConfig config;
  config.seed = 1;
  config.n = 40;
  config.target_ops = 20;
  const harness::Trace t = harness::generate_trace(config);
  harness::RunOptions opts;
  opts.race_detect = true;
  const harness::RunResult r = harness::run_trace(t, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("PARCT_RACE_DETECT"), std::string::npos)
      << r.failure;
  par::scheduler::initialize(1);
}

#endif  // PARCT_RACE_DETECT

}  // namespace
}  // namespace parct
