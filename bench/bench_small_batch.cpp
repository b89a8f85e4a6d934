// Small-batch update latency through the serving stack: one
// BatchServer::submit_update + epoch step per measurement, over forest
// sizes n in {10^4, 10^5, 10^6} and batch sizes m in {1, 10, 100}. This
// is the end-to-end cost a client pays for a tiny update — admission,
// apply() (which takes the adaptive serial fast path for sub-cutover
// frontiers; docs/PERFORMANCE.md "Small-batch fast path"), derived-layer
// repair, and snapshot publication (which patches only the changed
// entries; docs/PERFORMANCE.md "Snapshot publish").
//
// The paper's bound says a batch of m changes costs O(m log((n+m)/m)), so
// at fixed m the latency should stay flat as n grows. Rows with n above
// PARCT_BENCH_N are skipped (CI's small run keeps one n). Each row reports
// the median and quartiles over PARCT_BENCH_REPS timed updates.
//
// The m=1 rows are the latency headline; the JSONL rows carry
// chose_serial / fused_passes / ws_misses / snapshot_patches so CI can
// gate the fast path and the patch publish staying engaged
// (tools/check_alloc_budget.py with bench/alloc_budget.json).
#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/bench_util.hpp"
#include "contraction/construct.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "parallel/scheduler.hpp"
#include "service/batch_server.hpp"

using namespace parct;

namespace {

// Value at quantile q of `xs` (nearest rank; sorts in place).
double quantile(std::vector<double>& xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  return xs[static_cast<std::size_t>(pos + 0.5)];
}

}  // namespace

int main() {
  par::scheduler::initialize(1);
  const std::size_t max_n = bench::env_size("PARCT_BENCH_N", 1000000);
  const int reps = bench::default_reps();

  bench::TableWriter table(
      "Small-batch update latency through BatchServer (chain factor 0.6, "
      "step mode, median of " + std::to_string(reps) + ")",
      {"n", "batch_m", "latency_s", "latency_per_edge_us", "publish_s",
       "snapshot_patches", "chose_serial", "rounds"});

  for (std::size_t n = 10000; n <= max_n && n <= 1000000; n *= 10) {
    forest::Forest full = forest::build_tree(n, 4, 0.6, 0x53A17'BA7CULL);
    for (std::size_t m = 1; m <= 100; m *= 10) {
      auto [initial, batch] = forest::make_insert_batch(full, m, m + 41);
      forest::ChangeSet inverse;
      inverse.remove_edges = batch.add_edges;

      contract::ContractionForest c(full.capacity(), 4, 99);
      contract::construct(c, initial);

      service::ServiceConfig cfg;
      cfg.validate_updates = false;  // measure the engine, not the checker
      service::BatchServer server(
          c, cfg, std::vector<service::Weight>(full.capacity(), 1));

      auto apply_once = [&](const forest::ChangeSet& cs) {
        service::UpdateRequest u;
        u.batch = cs;
        std::future<service::UpdateResult> fut =
            server.submit_update(std::move(u));
        server.step();
        return fut.get();
      };

      // Warm-up cycle: first forward/inverse pair grows every scratch
      // buffer to steady-state capacity (later reps must show
      // ws_misses == 0) and fills both snapshot buffers.
      apply_once(batch);
      apply_once(inverse);

      bench::StatsDump dump("small_batch");
      service::UpdateResult last;
      std::vector<double> latency;
      std::vector<double> publish;
      for (int r = 0; r < reps; ++r) {
        const double p0 = server.stats().publish_seconds;
        const auto t0 = std::chrono::steady_clock::now();
        last = apply_once(batch);
        const auto t1 = std::chrono::steady_clock::now();
        latency.push_back(std::chrono::duration<double>(t1 - t0).count());
        publish.push_back(server.stats().publish_seconds - p0);
        apply_once(inverse);  // restore outside the clock
      }
      const double med = quantile(latency, 0.5);
      const double pub = quantile(publish, 0.5);
      const std::uint64_t patches = server.stats().snapshot_patches;

      table.row({std::to_string(n), std::to_string(m), bench::fmt_s(med),
                 bench::fmt(med / static_cast<double>(m) * 1e6),
                 bench::fmt_s(pub), std::to_string(patches),
                 std::to_string(last.stats.chose_serial),
                 std::to_string(last.stats.rounds)});

      dump.num("n", n)
          .num("batch_m", m)
          .num("reps", reps)
          .num("latency_s", med)
          .num("latency_q1_s", quantile(latency, 0.25))
          .num("latency_q3_s", quantile(latency, 0.75))
          .num("publish_s", pub)
          .num("snapshot_patches", patches);
      bench::add_update_stats(dump, last.stats);
      dump.emit();
    }
  }
  return 0;
}
