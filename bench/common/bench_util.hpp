// Shared helpers for the figure-reproduction benchmark binaries.
//
// Scales default to CI/laptop-friendly sizes; override with environment
// variables to reach the paper's scale:
//   PARCT_BENCH_N          base forest size (paper: 10^6, Fig 5: 4*10^6)
//   PARCT_BENCH_REPS       repetitions averaged per data point (paper: 3)
//   PARCT_BENCH_MAXTHREADS largest worker count in thread sweeps
//   PARCT_STATS_JSON       file path: benches append one JSON object per
//                          StatsDump::emit() as a line (JSONL), including
//                          the scheduler pool counters — the machine-
//                          readable companion of the stdout tables (see
//                          docs/OBSERVABILITY.md)
#pragma once

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/stats.hpp"

namespace parct::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* s = std::getenv(name)) {
    const long long v = std::atoll(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

inline std::size_t default_n() { return env_size("PARCT_BENCH_N", 200000); }
inline int default_reps() {
  return static_cast<int>(env_size("PARCT_BENCH_REPS", 3));
}
inline unsigned max_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<unsigned>(env_size(
      "PARCT_BENCH_MAXTHREADS", hw == 0 ? 4 : std::max(hw, 4u)));
}

inline std::vector<unsigned> thread_sweep() {
  std::vector<unsigned> ps;
  for (unsigned p = 1; p <= max_threads(); p *= 2) ps.push_back(p);
  if (ps.back() != max_threads()) ps.push_back(max_threads());
  return ps;
}

/// Average seconds of `fn` over `reps` runs (each run timed separately).
/// One untimed warm-up run precedes the measurements (cache/allocator
/// warm-up; the paper averages 3 hot runs).
template <typename F>
double time_avg_s(F&& fn, int reps) {
  using clock = std::chrono::steady_clock;
  fn();
  double total = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    total += std::chrono::duration<double>(t1 - t0).count();
  }
  return total / reps;
}

struct TableWriter {
  explicit TableWriter(const std::string& title,
                       const std::vector<std::string>& columns) {
    std::printf("\n## %s\n", title.c_str());
    for (std::size_t i = 0; i < columns.size(); ++i) {
      std::printf("%s%s", i ? "," : "", columns[i].c_str());
    }
    std::printf("\n");
  }
  void row(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s%s", i ? "," : "", cells[i].c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
};

inline std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}
inline std::string fmt_s(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", seconds);
  return buf;
}

// --- JSON stats dump -----------------------------------------------------

/// Builds one flat JSON object and appends it as a line to the file named
/// by PARCT_STATS_JSON (no-op when the variable is unset). emit() merges
/// in the scheduler's pool counters (steals, parks, wakeups, tasks) as
/// deltas since the dump was constructed, so every bench can ship its
/// scheduler/update telemetry to CI artifacts:
///
///   bench::StatsDump dump("fig6");   // construct before the measured work
///   dump.num("n", n).num("batch_m", m).num("update_time_s", t);
///   dump.emit();
class StatsDump {
 public:
  explicit StatsDump(const std::string& bench)
      : base_(par::stats::snapshot()) {
    str("bench", bench);
  }

  StatsDump& str(const std::string& key, const std::string& value) {
    field(key);
    body_ += '"';
    append_escaped(value);
    body_ += '"';
    return *this;
  }

  template <typename V>
  StatsDump& num(const std::string& key, V value) {
    static_assert(std::is_arithmetic_v<V>);
    field(key);
    char buf[64];
    if constexpr (std::is_floating_point_v<V>) {
      std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(value));
    } else if constexpr (std::is_signed_v<V>) {
      std::snprintf(buf, sizeof buf, "%" PRId64,
                    static_cast<std::int64_t>(value));
    } else {
      std::snprintf(buf, sizeof buf, "%" PRIu64,
                    static_cast<std::uint64_t>(value));
    }
    body_ += buf;
    return *this;
  }

  /// Appends the object (plus pool counter deltas since construction) to
  /// $PARCT_STATS_JSON.
  void emit() {
    const char* path = std::getenv("PARCT_STATS_JSON");
    if (path == nullptr) return;
    const par::stats::PoolCounters pool = par::stats::snapshot();
    // The pool may have been re-initialized since construction (thread
    // sweeps); counters then restart from zero, so clamp the deltas.
    auto delta = [](std::uint64_t now, std::uint64_t then) {
      return now >= then ? now - then : now;
    };
    num("workers", pool.num_workers)
        .num("sched_steals", delta(pool.steals, base_.steals))
        .num("sched_tasks", delta(pool.tasks_executed, base_.tasks_executed))
        .num("sched_parks", delta(pool.parks, base_.parks))
        .num("sched_wakeups", delta(pool.wakeups, base_.wakeups));
    if (std::FILE* f = std::fopen(path, "a")) {
      std::fprintf(f, "{%s}\n", body_.c_str());
      std::fclose(f);
    }
  }

 private:
  void field(const std::string& key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    append_escaped(key);
    body_ += "\":";
  }
  void append_escaped(const std::string& s) {
    for (char ch : s) {
      if (ch == '"' || ch == '\\') body_ += '\\';
      body_ += ch;
    }
  }

  std::string body_;
  par::stats::PoolCounters base_;
};

/// Adds the counters and per-phase times of an UpdateStats to a dump.
inline void add_update_stats(StatsDump& d,
                             const contract::UpdateStats& s) {
  d.num("rounds", s.rounds)
      .num("initial_affected", s.initial_affected)
      .num("affected_total", s.total_affected)
      .num("affected_max", s.max_affected)
      .num("neighborhood_total", s.total_neighborhood)
      .num("chose_serial", s.chose_serial)
      .num("serial_cutover", par::serial_cutover());
  static constexpr const char* kPhaseKeys[contract::kNumUpdatePhases] = {
      "phase_initial_s", "phase_mark_s",   "phase_neighborhood_s",
      "phase_erase_s",   "phase_promote_s", "phase_spread_s",
      "phase_x_s",       "phase_serial_s"};
  for (unsigned p = 0; p < contract::kNumUpdatePhases; ++p) {
    d.num(kPhaseKeys[p], s.phase_seconds[p]);
  }
  d.num("update_total_s", s.total_seconds);
  d.num("ws_acquires", s.ws_acquires)
      .num("ws_hits", s.ws_hits)
      .num("ws_misses", s.ws_misses)
      .num("ws_bytes_allocated", s.ws_bytes_allocated)
      .num("ws_container_growths", s.ws_container_growths)
      .num("ws_container_bytes", s.ws_container_bytes);
}

/// Adds the counters and per-phase times of a ConstructStats to a dump.
inline void add_construct_stats(StatsDump& d,
                                const contract::ConstructStats& s) {
  d.num("rounds", s.rounds)
      .num("total_live", s.total_live)
      .num("chose_serial", s.chose_serial)
      .num("serial_cutover", par::serial_cutover());
  static constexpr const char* kPhaseKeys[contract::kNumConstructPhases] = {
      "phase_classify_s", "phase_allocate_s", "phase_promote_s",
      "phase_compact_s", "phase_serial_s"};
  for (unsigned p = 0; p < contract::kNumConstructPhases; ++p) {
    d.num(kPhaseKeys[p], s.phase_seconds[p]);
  }
  d.num("construct_total_s", s.total_seconds);
  d.num("ws_acquires", s.ws_acquires)
      .num("ws_hits", s.ws_hits)
      .num("ws_misses", s.ws_misses)
      .num("ws_bytes_allocated", s.ws_bytes_allocated)
      .num("ws_container_growths", s.ws_container_growths)
      .num("ws_container_bytes", s.ws_container_bytes);
}

}  // namespace parct::bench
