// The untraced run: drives a workload through service::BatchServer with
// tracing off, checks every output, crashes the server and recovers it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/stats.hpp"
#include "report.hpp"
#include "service/batch_server.hpp"
#include "workload.hpp"

namespace perfbench {

/// An episode is one pool start (with its own serial-cutover
/// calibration), set-up, timed phase, crash and recovery. The timed phase
/// is cut into windows (checkpoint cycles, query bursts, or fixed slices
/// of the mixed traffic); the update median and the rates are taken per
/// window, and a run reports their medians over all windows, so a short
/// stall of the host moves a minority of windows and not the result.
struct ServeResult {
  std::vector<double> window_update_p50_us;
  std::vector<double> window_edges_per_s;
  std::vector<double> window_queries_per_s;
  std::vector<double> serial_cutover;  // per episode

  std::vector<double> setup_s;
  std::vector<double> recover_s;
  std::vector<double> update_us;  // client-observed, timed updates
  std::vector<double> query_us;   // client-observed, per query batch
  std::vector<double> late_us;    // generator lateness per submission
  double peak_rss_mb = 0;  // at the end of the first timed phase
  double update_seconds = 0;  // timed update windows, summed
  double query_seconds = 0;   // timed query windows, summed

  /// Updates the last episode applied (warm-up, timed and tail) and its
  /// last acknowledged version; the traced run replays the same updates.
  std::size_t updates_applied = 0;
  std::uint64_t final_version = 0;
  std::uint64_t recovery_replayed = 0;

  /// Public server stats and pool counters over the timed update windows.
  parct::service::ServiceStats stats;
  parct::par::stats::PoolCounters pool;
  /// UpdateResult.stats of the timed updates: per-update values, and the
  /// workspace counters summed.
  std::vector<double> affected_total, rounds, chose_serial;
  std::uint64_t ws_misses = 0;
  std::uint64_t ws_container_growths = 0;
};

/// Episodes a run of `seconds` is cut into; 1 with `single`. Each
/// episode starts again from version 0 on the same inputs, so the inputs
/// only need to cover seconds / episode_count.
int episode_count(const WorkloadSpec& spec, double seconds, bool single);

/// Runs `spec` on `in` for `seconds`, keeping the durability directory
/// under `dir`. With `single`, one episode with one set-up and one
/// recovery runs (the traced run only needs the public stats of this
/// run). Failures are counted in `report`.
ServeResult serve(const WorkloadSpec& spec, const Inputs& in, double seconds,
                  const std::string& dir, bool single, Report& report);

/// Checks a served snapshot against a from-scratch construct + RCForest +
/// TreeAggregate of `model`, on every vertex. Returns an error or "".
std::string check_against_scratch(const parct::service::Snapshot& snap,
                                  const parct::forest::Forest& model,
                                  const std::vector<Weight>& weights,
                                  std::uint64_t coin_seed);

/// Table-by-table equality of two snapshots. Returns an error or "".
std::string compare_snapshots(const parct::service::Snapshot& a,
                              const parct::service::Snapshot& b);

bool same_answers(const parct::service::QueryResult& a,
                  const parct::service::QueryResult& b);

/// Applies `m` to `f` in place (cuts, then links).
void apply_batch(parct::forest::Forest& f, const parct::forest::ChangeSet& m);

}  // namespace perfbench
