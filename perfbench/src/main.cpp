// Serving benchmark for service::BatchServer (see ../NOTES.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--state-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of the untraced run; --trace 1
// runs the untraced run for its public stats, then the traced replay, and
// prints the per-layer metrics. The last line of standard output is the
// JSON result; the exit code is 0 only if every output check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "replay.hpp"
#include "report.hpp"
#include "serve.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir = ".bench_state";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--state-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--state-dir") {
        a.state_dir = v;
      } else {
        usage(("unknown argument " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
  return a;
}

// Median time to copy 6.4 MB (the point workload's snapshot size): a
// reading of the host's memory bandwidth at the start of the run, printed
// so a slow run can be told from a slow program.
double memcpy_probe_us() {
  std::vector<char> a(6400000, 1);
  std::vector<char> b(a.size(), 2);
  std::vector<double> t;
  for (int i = 0; i < 32; ++i) {
    const auto t0 = now_ns();
    std::memcpy(b.data(), a.data(), a.size());
    t.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    a[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i) + 1];
  }
  return median(t);
}

void add(std::vector<Metric>& to, const std::string& name, double value,
         const std::string& unit, std::size_t samples) {
  to.push_back({name, value, unit, samples});
}

void add_per_layer(const WorkloadSpec& spec, const ServeResult& sr,
                   const ReplayResult& rr, const Tracer& tr,
                   const std::string& spans_path, Report& rep) {
  const std::vector<Span>& spans = tr.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  auto per_update_us = [&](std::initializer_list<std::string_view> names) {
    std::vector<double> v =
        per_request_self_ns(spans, self, "service.epoch", names);
    for (double& x : v) x /= 1e3;
    return v;
  };
  auto us = [](std::vector<double> v) {
    for (double& x : v) x /= 1e3;
    return v;
  };
  auto s = [](std::vector<double> v) {
    for (double& x : v) x /= 1e9;
    return v;
  };
  const bool validated = spec.validate_updates;

  auto& m = rep.metrics;
  const auto publish = per_update_us({"service.publish"});
  const auto apply = per_update_us({"contraction.apply"});
  const auto wal = per_update_us({"durability.wal_append"});
  const auto repair = per_update_us(
      {"rc.repair", "rc.prepare_update", "rc.refresh", "rc.apply_update"});
  std::vector<double> validate;
  if (validated) {
    validate =
        per_update_us({"forest.check_change_set", "forest.apply_change_set"});
  } else {
    validate = us(per_request_self_ns(
        spans, self, "forest.validate_sample",
        {"forest.check_change_set", "forest.apply_change_set"}));
  }
  const auto query_batch = us(durations_ns(spans, "service.query_batch"));
  const auto epochs = us(durations_ns(spans, "service.epoch"));
  const auto coverage = child_coverage(spans, self, "service.epoch");

  const double upd_p50 = median(sr.window_update_p50_us);
  const double layers_p50 = (validated ? median(validate) : 0) +
                            median(apply) + median(wal) + median(repair) +
                            median(publish);
  const double updates = static_cast<double>(sr.stats.updates_applied);
  const double epochs_u = static_cast<double>(sr.stats.epochs);

  add(m, "service.publish_us", median(publish), "us", publish.size());
  add(m, "service.snapshot_bytes", static_cast<double>(rr.snapshot_bytes), "B",
      1);
  add(m, "service.stats_update_us",
      updates > 0 ? sr.stats.update_seconds / updates * 1e6 : 0, "us",
      sr.stats.updates_applied);
  add(m, "service.stats_publish_us",
      updates > 0 ? sr.stats.publish_seconds / updates * 1e6 : 0, "us",
      sr.stats.updates_applied);
  add(m, "service.stats_epoch_us",
      epochs_u > 0 ? sr.stats.epoch_seconds / epochs_u * 1e6 : 0, "us",
      sr.stats.epochs);
  add(m, "service.query_batch_us", median(query_batch), "us",
      query_batch.size());
  add(m, "service.queries_per_epoch",
      epochs_u > 0 ? static_cast<double>(sr.stats.queries_served) / epochs_u
                   : 0,
      "count", sr.stats.epochs);
  add(m, "service.overlapped_epochs",
      static_cast<double>(sr.stats.overlapped_epochs), "count",
      sr.stats.epochs);
  add(m, "service.overhead_us", upd_p50 - layers_p50, "us",
      sr.update_us.size());
  add(m, "service.update_p99_us", percentile(sr.update_us, 99), "us",
      sr.update_us.size());
  add(m, "service.query_p99_us", percentile(sr.query_us, 99), "us",
      sr.query_us.size());
  add(m, "service.generator_late_us", median(sr.late_us), "us",
      sr.late_us.size());
  add(m, "forest.validate_us", median(validate), "us", validate.size());
  const auto construct = s(durations_ns(spans, "contraction.construct"));
  add(m, "contraction.construct_s", median(construct), "s", construct.size());
  add(m, "contraction.apply_us", median(apply), "us", apply.size());
  add(m, "contraction.affected_total", median(sr.affected_total), "count",
      sr.affected_total.size());
  add(m, "contraction.rounds", median(sr.rounds), "count", sr.rounds.size());
  add(m, "contraction.chose_serial", median(sr.chose_serial), "count",
      sr.chose_serial.size());
  add(m, "contraction.construct_heap_mb", rr.construct_heap_mb, "MB", 1);
  add(m, "rc.repair_us", median(repair), "us", repair.size());
  add(m, "rc.touched", median(rr.touched), "count", rr.touched.size());
  add(m, "rc.chain_steps", rr.chain_steps, "count", 1);
  add(m, "durability.wal_append_us", median(wal), "us", wal.size());
  add(m, "durability.wal_bytes_per_update", median(rr.wal_record_bytes), "B",
      rr.wal_record_bytes.size());
  const auto ckpt = s(durations_ns(spans, "durability.checkpoint"));
  add(m, "durability.checkpoint_s", median(ckpt), "s", ckpt.size());
  add(m, "durability.checkpoint_bytes",
      static_cast<double>(rr.checkpoint_bytes), "B", 1);
  const auto load = s(durations_ns(spans, "durability.read_checkpoint"));
  const auto replayed = s(durations_ns(spans, "durability.replay_wal"));
  add(m, "durability.recover_load_s", median(load), "s", load.size());
  add(m, "durability.recover_replay_s", median(replayed), "s",
      replayed.size());
  add(m, "durability.recovery_replayed",
      static_cast<double>(rr.recovery_replayed), "count", 1);
  add(m, "parallel.serial_cutover", median(sr.serial_cutover), "count",
      sr.serial_cutover.size());
  add(m, "parallel.steals", static_cast<double>(sr.pool.steals), "count", 1);
  add(m, "parallel.tasks", static_cast<double>(sr.pool.tasks_executed),
      "count", 1);
  add(m, "parallel.parks", static_cast<double>(sr.pool.parks), "count", 1);
  add(m, "parallel.wakeups", static_cast<double>(sr.pool.wakeups), "count", 1);
  add(m, "primitives.ws_misses", static_cast<double>(sr.ws_misses), "count",
      sr.update_us.size());
  add(m, "primitives.ws_container_growths",
      static_cast<double>(sr.ws_container_growths), "count",
      sr.update_us.size());

  auto& info = rep.info;
  add(info, "trace.update_p50_traced_us", median(epochs), "us", epochs.size());
  add(info, "trace.update_p50_untraced_us", upd_p50, "us", sr.update_us.size());
  add(info, "trace.tracing_overhead_us", median(epochs) - upd_p50, "us",
      epochs.size());
  add(info, "trace.layer_coverage_median", median(coverage), "ratio",
      coverage.size());
  add(info, "trace.layer_coverage_p1", percentile(coverage, 1), "ratio",
      coverage.size());
  add(info, "trace.spans", static_cast<double>(spans.size()), "count", 1);

  std::ofstream out(spans_path);
  write_spans_csv(out, spans, self);
  std::printf("spans written to %s\n", spans_path.c_str());
}

int run(const Args& a) {
  const auto spec = find_workload(a.workload);
  if (!spec) usage(("unknown workload " + a.workload).c_str());

  const std::string dir = a.state_dir + "/" + a.workload + "-" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  const auto g0 = now_ns();
  const Inputs in = make_inputs(
      *spec, a.seed, a.seconds / episode_count(*spec, a.seconds, a.trace));
  std::printf("workload %s seed %llu seconds %g trace %d: n=%zu, %zu batches "
              "generated in %.3f s\n",
              spec->name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, spec->n, in.batches.size(),
              static_cast<double>(now_ns() - g0) / 1e9);

  Report rep;
  add(rep.info, "env.memcpy_6mb_us", memcpy_probe_us(), "us", 32);
  const ServeResult sr =
      serve(*spec, in, a.seconds, dir + "/serve", a.trace, rep);

  auto& info = rep.info;
  add(info, "service.update_p99_us", percentile(sr.update_us, 99), "us",
      sr.update_us.size());
  add(info, "service.query_p99_us", percentile(sr.query_us, 99), "us",
      sr.query_us.size());
  add(info, "service.generator_late_us", median(sr.late_us), "us",
      sr.late_us.size());
  add(info, "service.generator_late_p99_us", percentile(sr.late_us, 99), "us",
      sr.late_us.size());
  add(info, "run.update_seconds", sr.update_seconds, "s", 1);
  add(info, "run.query_seconds", sr.query_seconds, "s", 1);
  add(info, "parallel.serial_cutover_min",
      sr.serial_cutover.empty() ? 0 : *std::min_element(
          sr.serial_cutover.begin(), sr.serial_cutover.end()),
      "count", sr.serial_cutover.size());
  add(info, "parallel.serial_cutover_max",
      sr.serial_cutover.empty() ? 0 : *std::max_element(
          sr.serial_cutover.begin(), sr.serial_cutover.end()),
      "count", sr.serial_cutover.size());
  const double applied = static_cast<double>(sr.stats.updates_applied);
  add(info, "service.stats_update_us",
      applied > 0 ? sr.stats.update_seconds / applied * 1e6 : 0, "us",
      sr.stats.updates_applied);
  add(info, "service.stats_publish_us",
      applied > 0 ? sr.stats.publish_seconds / applied * 1e6 : 0, "us",
      sr.stats.updates_applied);
  add(info, "run.updates_applied", static_cast<double>(sr.updates_applied),
      "count", 1);
  add(info, "durability.recovery_replayed_served",
      static_cast<double>(sr.recovery_replayed), "count", 1);

  if (!a.trace) {
    auto& m = rep.metrics;
    add(m, "setup_s", median(sr.setup_s), "s", sr.setup_s.size());
    add(m, "update_p50_us", median(sr.window_update_p50_us), "us",
        sr.update_us.size());
    add(m, "edges_per_s", median(sr.window_edges_per_s), "1/s",
        sr.update_us.size());
    add(m, "queries_per_s", median(sr.window_queries_per_s), "1/s",
        sr.query_us.size());
    add(m, "recover_s", median(sr.recover_s), "s", sr.recover_s.size());
    add(m, "peak_rss_mb", sr.peak_rss_mb, "MB", 1);
  } else {
    Tracer tr;
    const ReplayResult rr =
        replay(*spec, in, sr.updates_applied, dir + "/replay", tr, rep);
    add_per_layer(*spec, sr, rr, tr,
                  a.state_dir + "/spans-" + a.workload + ".csv", rep);
  }
  std::filesystem::remove_all(dir);
  add(info, "error_rate",
      rep.attempted ? static_cast<double>(rep.failed) /
                          static_cast<double>(rep.attempted)
                    : 0,
      "ratio", rep.attempted);
  rep.print();
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
