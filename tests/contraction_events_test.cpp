// A round's contraction events are written once (contraction/promote.hpp)
// and read back two ways, both checked here:
//   * contract::replay fires, from the records alone, exactly the events
//     contract::construct fires — on fresh forests, and on a dynamically
//     updated structure against a from-scratch oracle of the same forest;
//   * DynamicUpdater::touched() is the refresh set of the derived layers:
//     each vertex once, within the events apply() fired plus V-, holding
//     every vertex whose rc::Event changed, and a repair over it equals a
//     rebuild — over harness traces at 1 and 4 workers, each at serial
//     cutover 0 (every loop parallel) and the built-in 1024.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <tuple>
#include <vector>

#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "forest/validation.hpp"
#include "harness/workload.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/scheduler.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"
#include "test_util.hpp"

namespace parct {
namespace {

// (round, event, vertex, first argument, second argument). Sorting puts
// the round first, so two sorted logs are equal exactly when every round
// fired the same multiset of events.
using Fired = std::tuple<std::uint32_t, int, VertexId, VertexId, VertexId>;

enum EventCode { kPersist, kEdgePersist, kFinalize, kRake, kCompress };

class EventLog final : public contract::EventHooks {
 public:
  void on_begin(std::size_t) override { ++begins; }
  void on_vertex_persist(std::uint32_t i, VertexId v) override {
    add({i, kPersist, v, kNoVertex, kNoVertex});
  }
  void on_edge_persist(std::uint32_t i, VertexId v, VertexId p) override {
    add({i, kEdgePersist, v, p, kNoVertex});
  }
  void on_finalize(std::uint32_t i, VertexId v) override {
    add({i, kFinalize, v, kNoVertex, kNoVertex});
  }
  void on_rake(std::uint32_t i, VertexId v, VertexId p) override {
    add({i, kRake, v, p, kNoVertex});
  }
  void on_compress(std::uint32_t i, VertexId v, VertexId child,
                   VertexId p) override {
    add({i, kCompress, v, child, p});
  }

  std::vector<Fired> sorted() const {
    std::vector<Fired> out = events_;
    std::sort(out.begin(), out.end());
    return out;
  }

  int begins = 0;

 private:
  void add(const Fired& e) {
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(e);
  }

  std::mutex mu_;
  std::vector<Fired> events_;
};

bool same_event(const rc::Event& a, const rc::Event& b) {
  return a.kind == b.kind && a.round == b.round && a.into == b.into &&
         a.over == b.over;
}

harness::WorkloadConfig trace_config(std::uint64_t seed) {
  harness::WorkloadConfig config;
  config.seed = seed;
  config.n = 300;
  config.extra_capacity = 60;
  config.target_ops = 400;
  config.max_batch = 40;
  return config;
}

class ContractionEvents : public ::testing::Test {
 protected:
  void TearDown() override {
    par::clear_serial_cutover();
    par::scheduler::initialize(1);
  }
};

// Every pool shape the parallel loops can take: inline (1 worker, or at
// most 1024 elements) and forked (4 workers at cutover 0).
struct PoolShape {
  unsigned workers;
  std::size_t cutover;
};
constexpr PoolShape kPools[] = {{1, 1024}, {1, 0}, {4, 1024}, {4, 0}};

void use_pool(const PoolShape& pool) {
  par::scheduler::initialize(pool.workers);
  par::set_serial_cutover(pool.cutover);
}

TEST_F(ContractionEvents, ReplayFiresWhatConstructFires) {
  for (const PoolShape& pool : kPools) {
    use_pool(pool);
    for (const test::Shape& shape : test::kShapes) {
      const forest::Forest f = shape.build(1500, 17, 0);
      contract::ContractionForest c(f.capacity(), 4, 23);
      EventLog built;
      contract::construct(c, f, &built);
      EventLog replayed;
      contract::replay(c, replayed);
      EXPECT_EQ(built.begins, 1);
      EXPECT_EQ(replayed.begins, 1);
      EXPECT_EQ(replayed.sorted(), built.sorted())
          << shape.name << ", " << pool.workers << " workers, cutover "
          << pool.cutover;
    }
  }
}

// After updates, replaying the updated structure fires what replaying (and
// constructing) a from-scratch oracle of the edited forest fires.
TEST_F(ContractionEvents, ReplayAfterApplyMatchesFromScratchOracle) {
  for (const PoolShape& pool : kPools) {
    use_pool(pool);
    const harness::Trace t =
        harness::generate_trace(trace_config(0xE7E + pool.workers));
    forest::Forest cur = t.initial;
    contract::ContractionForest c(cur.capacity(), t.degree_bound,
                                  t.contraction_seed);
    contract::construct(c, cur);
    contract::DynamicUpdater updater(c);
    int checked = 0;
    for (std::size_t s = 0; s < t.steps.size(); ++s) {
      const forest::ChangeSet& m = t.steps[s].batch;
      if (m.empty() || forest::check_change_set(cur, m)) continue;
      updater.apply(m);
      cur = forest::apply_change_set(cur, m);
      if (s % 3 != 0) continue;
      contract::ContractionForest oracle(cur.capacity(), t.degree_bound,
                                         t.contraction_seed);
      EventLog constructed;
      contract::construct(oracle, cur, &constructed);
      EventLog from_oracle;
      contract::replay(oracle, from_oracle);
      EventLog from_updated;
      contract::replay(c, from_updated);
      const std::vector<Fired> want = constructed.sorted();
      ASSERT_EQ(from_oracle.sorted(), want) << "step " << s;
      ASSERT_EQ(from_updated.sorted(), want)
          << "step " << s << ", " << pool.workers << " workers, cutover "
          << pool.cutover;
      ++checked;
    }
    EXPECT_GT(checked, 0);
  }
}

// Applies every valid step of `t` and checks touched() after each one.
// Adds the sizes of touched() and of the recorder's set to the totals.
void check_touched(const harness::Trace& t, std::size_t& touched_total,
                   std::size_t& recorded_total) {
  forest::Forest cur = t.initial;
  contract::ContractionForest c(cur.capacity(), t.degree_bound,
                                t.contraction_seed);
  contract::construct(c, cur);
  rc::RCForest rcf(c);
  std::vector<long> w(cur.capacity());
  for (std::size_t v = 0; v < w.size(); ++v) w[v] = static_cast<long>(v % 7);
  rc::TreeAggregate<long> agg(rcf, w);
  contract::DynamicUpdater updater(c);
  for (std::size_t s = 0; s < t.steps.size(); ++s) {
    const forest::ChangeSet& m = t.steps[s].batch;
    if (m.empty() || forest::check_change_set(cur, m)) continue;
    const std::vector<rc::Event> before = rcf.events();
    contract::TouchedRecorder recorder;
    updater.apply(m, &recorder);
    cur = forest::apply_change_set(cur, m);
    const std::vector<VertexId>& touched = updater.touched();
    touched_total += touched.size();
    recorded_total += recorder.vertices().size();

    // Each vertex once.
    std::vector<VertexId> mine = touched;
    std::sort(mine.begin(), mine.end());
    EXPECT_EQ(std::adjacent_find(mine.begin(), mine.end()), mine.end())
        << "step " << s << ": a vertex is listed twice";

    // Within the vertices that fired a death event, plus V-.
    std::vector<VertexId> fired = recorder.vertices();
    fired.insert(fired.end(), m.remove_vertices.begin(),
                 m.remove_vertices.end());
    std::sort(fired.begin(), fired.end());
    EXPECT_TRUE(
        std::includes(fired.begin(), fired.end(), mine.begin(), mine.end()))
        << "step " << s << ": touched() names a vertex that fired no event";

    // Every vertex whose event changed.
    const rc::RCForest fresh(c);
    for (VertexId v = 0; v < fresh.size(); ++v) {
      const rc::Event old = v < before.size() ? before[v] : rc::Event{};
      if (same_event(old, fresh.event(v))) continue;
      ASSERT_TRUE(std::binary_search(mine.begin(), mine.end(), v))
          << "step " << s << ": the event of vertex " << v
          << " changed but touched() misses it";
    }

    // A repair over touched() equals a rebuild.
    agg.prepare_update(touched);
    rcf.refresh(touched);
    agg.apply_update();
    for (VertexId v = 0; v < fresh.size(); ++v) {
      ASSERT_TRUE(same_event(rcf.event(v), fresh.event(v)))
          << "step " << s << ": refreshed event of vertex " << v;
    }
    const rc::TreeAggregate<long> rebuilt(fresh, agg.weights());
    EXPECT_EQ(agg.accumulators(), rebuilt.accumulators()) << "step " << s;
  }
}

TEST_F(ContractionEvents, TouchedIsTheRefreshSet) {
  std::size_t touched_total = 0;
  std::size_t recorded_total = 0;
  for (const PoolShape& pool : kPools) {
    use_pool(pool);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      check_touched(harness::generate_trace(trace_config(seed)),
                    touched_total, recorded_total);
      if (HasFailure()) {
        FAIL() << "trace seed " << seed << ", " << pool.workers
               << " workers, cutover " << pool.cutover;
      }
    }
  }
  // Unaffected neighbours re-fire unchanged events; touched() leaves them
  // out.
  EXPECT_LT(touched_total, recorded_total);
}

}  // namespace
}  // namespace parct
