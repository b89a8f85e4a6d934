// Concurrent serving soak: multiple client threads hammer a started
// BatchServer with query batches while an updater thread streams edge-churn
// batches through it. Every QueryResult carries the version it was answered
// at, so the concurrent history is checked against a serialized oracle: the
// forest obtained by applying the first `version` updates in submission
// order. Runs under TSAN in the sanitizer CI job; under PARCT_RACE_DETECT
// the same workload is driven through the deterministic single-threaded
// step() path, which still exercises the logical parallelism (query
// fan-out, update propagation) under the SP-bags detector.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "contraction/construct.hpp"
#include "forest/generators.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "service/batch_server.hpp"

namespace parct::service {
namespace {

constexpr std::size_t kN = 2000;
constexpr int kUpdates = 24;
constexpr int kQueryThreads = 2;
constexpr int kBatchesPerThread = 40;
constexpr std::size_t kQueriesPerBatch = 48;

struct Workload {
  forest::Forest initial{0};
  std::vector<forest::ChangeSet> batches;       // in submission order
  std::vector<forest::Forest> at_version;       // at_version[v]: after v batches
};

Workload make_workload() {
  Workload wl;
  wl.initial = forest::random_forest(kN, 8, 4, 0.45, 91);
  wl.at_version.push_back(wl.initial);
  for (int u = 0; u < kUpdates; ++u) {
    // Edge churn only: every vertex stays present, so any id < kN is a
    // valid query at every version (vertex churn is covered in
    // service_test.cpp).
    forest::ChangeSet m =
        forest::make_delete_batch(wl.at_version.back(), 4, 1000 + u);
    wl.at_version.push_back(
        forest::apply_change_set(wl.at_version.back(), m));
    wl.batches.push_back(std::move(m));
  }
  return wl;
}

QueryBatch make_queries(std::uint64_t seed) {
  hashing::SplitMix64 rng(seed);
  QueryBatch q;
  for (std::size_t i = 0; i < kQueriesPerBatch; ++i) {
    q.roots.push_back(static_cast<VertexId>(rng.next_below(kN)));
    q.connected.push_back({static_cast<VertexId>(rng.next_below(kN)),
                           static_cast<VertexId>(rng.next_below(kN))});
    q.tree_weights.push_back(static_cast<VertexId>(rng.next_below(kN)));
  }
  return q;
}

class Oracle {
 public:
  explicit Oracle(const Workload& wl, const std::vector<Weight>& w)
      : wl_(wl), w_(w) {}

  void check(const QueryBatch& q, const QueryResult& r) {
    ASSERT_LT(r.version, wl_.at_version.size());
    const forest::Forest& f = wl_.at_version[r.version];
    const std::vector<Weight>& component = components(r.version);
    for (std::size_t i = 0; i < q.roots.size(); ++i) {
      ASSERT_EQ(r.roots[i], forest::root_of(f, q.roots[i]))
          << "version " << r.version;
    }
    for (std::size_t i = 0; i < q.connected.size(); ++i) {
      ASSERT_EQ(r.connected[i] != 0,
                forest::root_of(f, q.connected[i].first) ==
                    forest::root_of(f, q.connected[i].second))
          << "version " << r.version;
    }
    for (std::size_t i = 0; i < q.tree_weights.size(); ++i) {
      ASSERT_EQ(r.tree_weights[i],
                component[forest::root_of(f, q.tree_weights[i])])
          << "version " << r.version;
    }
  }

 private:
  // component[root] = total weight of that tree, memoized per version.
  const std::vector<Weight>& components(std::uint64_t version) {
    auto it = cache_.find(version);
    if (it != cache_.end()) return it->second;
    const forest::Forest& f = wl_.at_version[version];
    std::vector<Weight> comp(f.capacity(), 0);
    for (VertexId v = 0; v < f.capacity(); ++v) {
      if (f.present(v)) comp[forest::root_of(f, v)] += w_[v];
    }
    return cache_.emplace(version, std::move(comp)).first->second;
  }

  const Workload& wl_;
  const std::vector<Weight>& w_;
  std::unordered_map<std::uint64_t, std::vector<Weight>> cache_;
};

#if PARCT_RACE_DETECT

TEST(ServiceSoak, SteppedEpochsUnderRaceDetector) {
  par::scheduler::initialize(4);
  Workload wl = make_workload();
  std::vector<Weight> w(kN);
  hashing::SplitMix64 wrng(3);
  for (Weight& x : w) x = static_cast<Weight>(wrng.next_below(64));

  contract::ContractionForest c(kN, 4, 7);
  contract::construct(c, wl.initial);
  BatchServer server(c, {}, w);

  Oracle oracle(wl, w);
  std::uint64_t seed = 1;
  for (int u = 0; u < kUpdates; ++u) {
    QueryBatch q = make_queries(seed++);
    auto qfut = server.submit_queries(q);
    UpdateRequest req;
    req.batch = wl.batches[u];
    auto ufut = server.submit_update(std::move(req));
    ASSERT_TRUE(server.step());
    oracle.check(q, qfut.get());
    ASSERT_EQ(ufut.get().version, static_cast<std::uint64_t>(u) + 1);
  }
  par::scheduler::initialize(1);
}

#else  // !PARCT_RACE_DETECT

TEST(ServiceSoak, ConcurrentClientsMatchSerializedOracle) {
  par::scheduler::initialize(4);
  Workload wl = make_workload();
  std::vector<Weight> w(kN);
  hashing::SplitMix64 wrng(3);
  for (Weight& x : w) x = static_cast<Weight>(wrng.next_below(64));

  contract::ContractionForest c(kN, 4, 7);
  contract::construct(c, wl.initial);
  ServiceConfig cfg;
  cfg.max_pending_updates = 4;  // small queues: exercise backpressure
  cfg.max_pending_query_batches = 8;
  BatchServer server(c, cfg, w);
  server.start();

  // One updater thread streams the precomputed batches in order; query
  // threads submit concurrently and keep (batch, future) pairs for the
  // post-hoc oracle check. Client threads only touch the server's
  // thread-safe submit API — never the pool (the engine owns it).
  std::vector<std::future<UpdateResult>> ufuts(kUpdates);
  // parct-lint: allow(raw-thread) — soak clients are OS threads by design.
  std::thread updater([&] {
    for (int u = 0; u < kUpdates; ++u) {
      UpdateRequest req;
      req.batch = wl.batches[u];
      ufuts[u] = server.submit_update(std::move(req));
    }
  });

  using Submitted = std::pair<QueryBatch, std::future<QueryResult>>;
  std::vector<std::vector<Submitted>> per_thread(kQueryThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kQueryThreads; ++t) {
    // parct-lint: allow(raw-thread)
    clients.emplace_back([&, t] {
      for (int b = 0; b < kBatchesPerThread; ++b) {
        QueryBatch q = make_queries(7000 + 100 * t + b);
        auto fut = server.submit_queries(q);
        per_thread[t].push_back({std::move(q), std::move(fut)});
      }
    });
  }

  updater.join();
  for (std::thread& th : clients) th.join();
  server.stop();  // drains everything admitted

  for (int u = 0; u < kUpdates; ++u) {
    ASSERT_EQ(ufuts[u].get().version, static_cast<std::uint64_t>(u) + 1)
        << "updates must apply in submission order";
  }
  Oracle oracle(wl, w);
  for (auto& thread_results : per_thread) {
    for (auto& [q, fut] : thread_results) {
      QueryResult r = fut.get();
      oracle.check(q, r);
    }
  }

  const ServiceStats s = server.stats();
  EXPECT_EQ(s.updates_applied, static_cast<std::uint64_t>(kUpdates));
  EXPECT_EQ(s.queries_served,
            static_cast<std::uint64_t>(kQueryThreads) * kBatchesPerThread *
                kQueriesPerBatch * 3);
  EXPECT_EQ(s.snapshots_published, static_cast<std::uint64_t>(kUpdates) + 1);
  par::scheduler::initialize(1);
}

#endif  // PARCT_RACE_DETECT

}  // namespace
}  // namespace parct::service
