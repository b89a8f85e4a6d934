// Serving-layer benchmark: epochs of batched queries interleaved with
// dynamic updates through service::BatchServer. Sweeps the query:update
// mix and the worker count, and reports per-epoch throughput/latency plus
// the serving counters (backpressure, snapshot-buffer recycling). One row
// per (mix, workers) configuration; JSONL via PARCT_STATS_JSON
// (docs/OBSERVABILITY.md).
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/bench_util.hpp"
#include "contraction/construct.hpp"
#include "forest/generators.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "service/batch_server.hpp"

namespace parct {
namespace {

struct Mix {
  const char* name;
  int query_batches_per_epoch;  // batches of kQueriesPerBatch each
  bool update_per_epoch;
};

constexpr std::size_t kQueriesPerBatch = 512;
constexpr std::size_t kEdgesPerUpdate = 64;

struct EpochStream {
  // Delete/re-insert the same edge set on alternating updates, so the
  // forest oscillates between two shapes and every epoch's update has the
  // same size — steady-state serving, not a shrinking forest.
  forest::ChangeSet del, ins;
};

double run_config(contract::ContractionForest& c, const forest::Forest& f,
                  const Mix& mix, unsigned workers, int epochs,
                  bench::TableWriter& table) {
  par::scheduler::initialize(workers);
  service::ServiceConfig cfg;
  cfg.validate_updates = false;  // serving hygiene off: measure the engine
  service::BatchServer server(
      c, cfg, std::vector<service::Weight>(f.capacity(), 1));

  EpochStream stream;
  stream.del = forest::make_delete_batch(f, kEdgesPerUpdate, 77);
  for (const Edge& e : stream.del.remove_edges) {
    stream.ins.add_edges.push_back(e);
  }

  hashing::SplitMix64 rng(workers * 1000 + mix.query_batches_per_epoch);
  const std::size_t n = f.capacity();
  auto make_queries = [&] {
    service::QueryBatch q;
    for (std::size_t i = 0; i < kQueriesPerBatch; ++i) {
      q.roots.push_back(static_cast<VertexId>(rng.next_below(n)));
      q.connected.push_back({static_cast<VertexId>(rng.next_below(n)),
                             static_cast<VertexId>(rng.next_below(n))});
      q.tree_weights.push_back(static_cast<VertexId>(rng.next_below(n)));
    }
    return q;
  };

  server.start();
  std::vector<std::future<service::QueryResult>> qfuts;
  std::vector<std::future<service::UpdateResult>> ufuts;
  const auto t0 = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    for (int b = 0; b < mix.query_batches_per_epoch; ++b) {
      qfuts.push_back(server.submit_queries(make_queries()));
    }
    if (mix.update_per_epoch) {
      service::UpdateRequest u;
      u.batch = (e % 2 == 0) ? stream.del : stream.ins;
      ufuts.push_back(server.submit_update(std::move(u)));
    }
  }
  server.stop();  // drains all admitted work
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  for (auto& fut : qfuts) fut.get();
  for (auto& fut : ufuts) fut.get();
  // Leave the structure as it started (even update counts cancel out);
  // with an odd count, re-apply the inserts so the next config reuses it.
  if (mix.update_per_epoch && epochs % 2 != 0) {
    contract::modify_contraction(c, stream.ins);
  }

  const service::ServiceStats s = server.stats();
  const double qps = s.epochs ? static_cast<double>(s.queries_served) / secs
                              : 0.0;
  const double ups =
      s.epochs ? static_cast<double>(s.updates_applied) / secs : 0.0;
  table.row({mix.name, std::to_string(workers), std::to_string(s.epochs),
             bench::fmt(qps), bench::fmt(ups),
             bench::fmt_s(s.epochs ? secs / static_cast<double>(s.epochs)
                                   : 0.0),
             std::to_string(s.backpressure_waits),
             std::to_string(s.snapshot_buffers_reused),
             std::to_string(s.snapshot_buffers_allocated)});

  bench::StatsDump dump("service");
  dump.str("mix", mix.name)
      .num("n", n)
      .num("threads", workers)
      .num("epochs", s.epochs)
      .num("queries_served", s.queries_served)
      .num("updates_applied", s.updates_applied)
      .num("queries_per_s", qps)
      .num("updates_per_s", ups)
      .num("elapsed_s", secs)
      .num("epoch_s_total", s.epoch_seconds)
      .num("query_s_total", s.query_seconds)
      .num("update_s_total", s.update_seconds)
      .num("publish_s_total", s.publish_seconds)
      .num("validate_s_total", s.validate_seconds)
      .num("wal_s_total", s.wal_seconds)
      .num("validate_fallbacks", s.validate_fallbacks)
      .num("backpressure_waits", s.backpressure_waits)
      .num("queries_shed", s.queries_shed)
      .num("epoch_retries", s.epoch_retries)
      .num("deadline_rejections", s.deadline_rejections)
      .num("degraded_epochs", s.degraded_epochs)
      .num("admission_drops", s.admission_drops)
      .num("max_query_queue_depth", s.max_query_queue_depth)
      .num("max_update_queue_depth", s.max_update_queue_depth)
      .num("snapshot_buffers_reused", s.snapshot_buffers_reused)
      .num("snapshot_buffers_allocated", s.snapshot_buffers_allocated)
      .num("snapshot_patches", s.snapshot_patches)
      .num("wal_records", s.wal_records)
      .num("wal_bytes", s.wal_bytes)
      .num("checkpoints_written", s.checkpoints_written)
      .num("checkpoint_failures", s.checkpoint_failures)
      .num("recovery_replayed", s.recovery_replayed);
  dump.emit();
  return secs;
}

}  // namespace
}  // namespace parct

int main() {
  using namespace parct;
  const std::size_t n = bench::default_n();
  const int epochs = static_cast<int>(bench::env_size("PARCT_BENCH_EPOCHS",
                                                      40));
  forest::Forest f = forest::random_forest(n, 8, 4, 0.45, 12);
  contract::ContractionForest c(n, 4, 5);
  contract::construct(c, f);

  std::printf("# bench_service: n=%zu epochs=%d queries/batch=%zu "
              "edges/update=%zu\n",
              n, epochs, kQueriesPerBatch, kEdgesPerUpdate);
  bench::TableWriter table(
      "service epochs (query:update interleaving)",
      {"mix", "p", "epochs", "queries_per_s", "updates_per_s",
       "epoch_s_mean", "backpressure", "buf_reused", "buf_alloc"});

  const Mix mixes[] = {
      {"query-only", 4, false},
      {"mixed", 4, true},
      {"update-heavy", 1, true},
  };
  for (const unsigned p : bench::thread_sweep()) {
    for (const Mix& mix : mixes) run_config(c, f, mix, p, epochs, table);
  }
  par::scheduler::initialize(1);
  return 0;
}
