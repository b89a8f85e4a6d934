// Small-batch update latency through the serving stack: one
// BatchServer::submit_update + epoch step per measurement, over forest
// sizes n in {10^4, 10^5, 10^6}, batch sizes m in {1, 10, 100}, and three
// modes: update validation off, validation on
// (ServiceConfig::validate_updates), and durable (validation off, every
// update appended to a WAL before it publishes). This is the end-to-end
// cost a client pays for a tiny update — admission, validation
// (O(m log n); docs/PERFORMANCE.md "Update validation"), apply() (which
// takes the adaptive serial fast path for sub-cutover frontiers;
// docs/PERFORMANCE.md "Small-batch fast path"), the WAL append with its
// sync (docs/PERFORMANCE.md "WAL append"), derived-layer repair, and
// snapshot publication (which patches only the changed entries;
// docs/PERFORMANCE.md "Snapshot publish"). The durable rows keep their
// WAL in a directory under the working directory, so the sync reaches
// the disk the bench runs on; it is removed when the row ends.
//
// The paper's bound says a batch of m changes costs O(m log((n+m)/m)), so
// at fixed m the latency should stay flat as n grows. Rows with n above
// PARCT_BENCH_N are skipped (CI's small run keeps one n). Each row reports
// the median and quartiles over PARCT_BENCH_REPS timed updates.
//
// The m=1 rows are the latency headline; the JSONL rows carry
// chose_serial / fused_passes / ws_misses / snapshot_patches /
// validate_fallbacks so CI can gate the fast path, the patch publish and
// the O(m log n) validation staying engaged (tools/check_alloc_budget.py
// with bench/alloc_budget.json). The batches re-link edges across trees,
// so validation never needs its O(n) exact path.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/bench_util.hpp"
#include "contraction/construct.hpp"
#include "durability/manager.hpp"
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

// One row: `reps` timed applications of `batch`, each undone by `inverse`
// outside the clock, so `c` ends as it started. A durable row logs every
// update through a durability::Manager in `wal_dir`.
void run_row(contract::ContractionForest& c, std::size_t n, std::size_t m,
             bool validate, bool durable, const std::string& wal_dir,
             const forest::ChangeSet& batch,
             const forest::ChangeSet& inverse, int reps,
             bench::TableWriter& table) {
  service::ServiceConfig cfg;
  cfg.validate_updates = validate;
  std::unique_ptr<durability::Manager> manager;
  if (durable) {
    std::filesystem::remove_all(wal_dir);
    manager = std::make_unique<durability::Manager>(wal_dir);
    cfg.durability = manager.get();
  }
  auto server = std::make_unique<service::BatchServer>(
      c, cfg, std::vector<service::Weight>(c.capacity(), 1));

  auto apply_once = [&](const forest::ChangeSet& cs) {
    service::UpdateRequest u;
    u.batch = cs;
    std::future<service::UpdateResult> fut =
        server->submit_update(std::move(u));
    server->step();
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
  std::vector<double> validation;
  std::vector<double> wal;
  for (int r = 0; r < reps; ++r) {
    const service::ServiceStats s0 = server->stats();
    const auto t0 = std::chrono::steady_clock::now();
    last = apply_once(batch);
    const auto t1 = std::chrono::steady_clock::now();
    const service::ServiceStats s1 = server->stats();
    latency.push_back(std::chrono::duration<double>(t1 - t0).count());
    publish.push_back(s1.publish_seconds - s0.publish_seconds);
    validation.push_back(s1.validate_seconds - s0.validate_seconds);
    wal.push_back(s1.wal_seconds - s0.wal_seconds);
    apply_once(inverse);  // restore outside the clock
  }
  const double med = quantile(latency, 0.5);
  const double pub = quantile(publish, 0.5);
  const double val = quantile(validation, 0.5);
  const double wal_med = quantile(wal, 0.5);
  const service::ServiceStats s = server->stats();
  server.reset();
  manager.reset();
  if (durable) std::filesystem::remove_all(wal_dir);

  table.row({std::to_string(n), std::to_string(m), validate ? "1" : "0",
             durable ? "1" : "0", bench::fmt_s(med),
             bench::fmt(med / static_cast<double>(m) * 1e6),
             bench::fmt_s(pub), bench::fmt_s(val), bench::fmt_s(wal_med),
             std::to_string(s.snapshot_patches),
             std::to_string(s.validate_fallbacks),
             std::to_string(last.stats.chose_serial),
             std::to_string(last.stats.rounds)});

  dump.num("n", n)
      .num("batch_m", m)
      .num("validate", validate ? 1 : 0)
      .num("durable", durable ? 1 : 0)
      .num("reps", reps)
      .num("latency_s", med)
      .num("latency_q1_s", quantile(latency, 0.25))
      .num("latency_q3_s", quantile(latency, 0.75))
      .num("publish_s", pub)
      .num("validate_s", val)
      .num("wal_s", wal_med)
      .num("snapshot_patches", s.snapshot_patches)
      .num("validate_fallbacks", s.validate_fallbacks);
  bench::add_update_stats(dump, last.stats);
  dump.emit();
}

}  // namespace

int main() {
  par::scheduler::initialize(1);
  const std::size_t max_n = bench::env_size("PARCT_BENCH_N", 1000000);
  const int reps = bench::default_reps();
  const std::string wal_dir =
      (std::filesystem::current_path() /
       ("parct_small_batch_wal-" + std::to_string(::getpid())))
          .string();

  bench::TableWriter table(
      "Small-batch update latency through BatchServer (chain factor 0.6, "
      "step mode, median of " + std::to_string(reps) + ")",
      {"n", "batch_m", "validate", "durable", "latency_s",
       "latency_per_edge_us", "publish_s", "validate_s", "wal_s",
       "snapshot_patches", "validate_fallbacks", "chose_serial", "rounds"});

  for (std::size_t n = 10000; n <= max_n && n <= 1000000; n *= 10) {
    forest::Forest full = forest::build_tree(n, 4, 0.6, 0x53A17'BA7CULL);
    for (std::size_t m = 1; m <= 100; m *= 10) {
      auto [initial, batch] = forest::make_insert_batch(full, m, m + 41);
      forest::ChangeSet inverse;
      inverse.remove_edges = batch.add_edges;

      contract::ContractionForest c(full.capacity(), 4, 99);
      contract::construct(c, initial);
      // (validate, durable): plain, validated, durable.
      constexpr std::pair<bool, bool> kModes[] = {
          {false, false}, {true, false}, {false, true}};
      for (const auto& [validate, durable] : kModes) {
        run_row(c, n, m, validate, durable, wal_dir, batch, inverse, reps,
                table);
      }
    }
  }
  return 0;
}
