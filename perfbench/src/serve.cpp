#include "serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "contraction/construct.hpp"
#include "durability/manager.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/scheduler.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using parct::service::BatchServer;
using parct::service::QueryBatch;
using parct::service::QueryResult;
using parct::service::ServiceConfig;
using parct::service::ServiceStats;
using parct::service::Snapshot;
using parct::service::SnapshotHandle;
using parct::service::UpdateRequest;
using parct::service::UpdateResult;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Every 16th answered query batch is kept and checked against the model
// at the version it reports.
constexpr std::size_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 512;
// Window length of the mixed traffic (25 updates at 10 per second).
constexpr double kMixedWindowS = 2.5;
// Recoveries timed per episode; the traced run makes one.
constexpr int kRecoveries = 2;

struct QuerySample {
  std::uint64_t version = 0;
  std::size_t ring = 0;
  QueryResult result;
};

// One set-up of the served system. Destroying it without a checkpoint is
// the simulated crash (the server goes first: it borrows the other two).
struct Served {
  std::unique_ptr<parct::contract::ContractionForest> forest;
  std::unique_ptr<parct::durability::Manager> manager;
  std::unique_ptr<BatchServer> server;

  void crash() {
    server.reset();
    manager.reset();
    forest.reset();
  }
};

ServiceConfig config_for(const WorkloadSpec& spec) {
  ServiceConfig cfg;
  cfg.validate_updates = spec.validate_updates;
  cfg.checkpoint_every = spec.checkpoint_every;
  return cfg;
}

// construct + initial checkpoint + BatchServer ctor (+ start): set-up_s.
Served set_up(const WorkloadSpec& spec, const Inputs& in,
              const std::string& dir) {
  Served s;
  s.forest = std::make_unique<parct::contract::ContractionForest>(
      spec.n, in.initial.degree_bound(), in.coin_seed);
  parct::contract::construct(*s.forest, in.initial);
  s.manager = std::make_unique<parct::durability::Manager>(dir);
  s.manager->checkpoint(*s.forest, in.weights, 0);
  ServiceConfig cfg = config_for(spec);
  cfg.durability = s.manager.get();
  s.server = std::make_unique<BatchServer>(*s.forest, cfg, in.weights, 0);
  if (spec.loop != Loop::kStep) s.server->start();
  return s;
}

QueryResult answer_on(const Snapshot& snap, const QueryBatch& q) {
  QueryResult r;
  r.version = snap.version;
  for (VertexId v : q.roots) r.roots.push_back(snap.root(v));
  for (const auto& [u, v] : q.connected) {
    r.connected.push_back(snap.connected(u, v) ? 1 : 0);
  }
  for (VertexId v : q.tree_weights) r.tree_weights.push_back(snap.tree_weight(v));
  return r;
}

// Adds the counters of the window [a, b] to `into`, on the fields the
// report uses.
void add_window(ServiceStats& into, const ServiceStats& a,
                const ServiceStats& b) {
  into.epochs += b.epochs - a.epochs;
  into.overlapped_epochs += b.overlapped_epochs - a.overlapped_epochs;
  into.queries_served += b.queries_served - a.queries_served;
  into.updates_applied += b.updates_applied - a.updates_applied;
  into.epoch_seconds += b.epoch_seconds - a.epoch_seconds;
  into.update_seconds += b.update_seconds - a.update_seconds;
  into.publish_seconds += b.publish_seconds - a.publish_seconds;
}

void add_window(parct::par::stats::PoolCounters& into,
                const parct::par::stats::PoolCounters& a,
                const parct::par::stats::PoolCounters& b) {
  into.num_workers = b.num_workers;
  into.steals += b.steals - a.steals;
  into.tasks_executed += b.tasks_executed - a.tasks_executed;
  into.parks += b.parks - a.parks;
  into.wakeups += b.wakeups - a.wakeups;
}

// One episode's traffic against one server: drives updates and queries,
// records client-side timings and keeps query samples for the model check.
class Run {
 public:
  Run(const WorkloadSpec& spec, const Inputs& in, BatchServer& server,
      Report& report)
      : spec_(spec), in_(in), server_(server), report_(report) {}

  std::size_t next_update() const { return next_; }
  std::vector<QuerySample>& samples() { return samples_; }
  const ServeResult& measured() const { return m_; }

  // Drops what the warm-up recorded.
  void reset_measurements() {
    m_ = ServeResult{};
    samples_.clear();
    edges_ = 0;
    items_ = 0;
  }

  // One closed-loop update (step or engine loop).
  void closed_update(bool timed) {
    UpdateRequest u;
    u.batch = in_.batches[next_];
    const auto t0 = Clock::now();
    if (timed && have_ack_) m_.late_us.push_back(us_between(last_ack_, t0));
    std::future<UpdateResult> fut = server_.submit_update(std::move(u));
    if (spec_.loop == Loop::kStep) server_.step();
    ++report_.attempted;
    try {
      const UpdateResult r = fut.get();
      last_ack_ = Clock::now();
      have_ack_ = true;
      record_update(next_, r, timed, us_between(t0, last_ack_));
    } catch (const std::exception& e) {
      report_.fail("update " + std::to_string(next_) + " rejected: " +
                   e.what());
    }
    ++next_;
  }

  // One whole checkpoint cycle of closed-loop updates. With the warm-up
  // offset, the cycle's checkpoint stall lands on one of its own updates.
  // Returns false when the generated updates have run out.
  bool update_cycle() {
    const std::size_t cycle =
        spec_.checkpoint_every ? spec_.checkpoint_every : 1;
    if (next_ + cycle > in_.batches.size()) return false;
    const ServiceStats s0 = server_.stats();
    const auto p0 = parct::par::stats::snapshot();
    have_ack_ = false;  // lateness is measured within a cycle
    const std::size_t first = m_.update_us.size();
    const std::uint64_t edges0 = edges_;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < cycle; ++k) closed_update(true);
    const double secs = seconds_between(t0, last_ack_);
    m_.update_seconds += secs;
    m_.window_update_p50_us.push_back(median(std::vector<double>(
        m_.update_us.begin() + static_cast<std::ptrdiff_t>(first),
        m_.update_us.end())));
    m_.window_edges_per_s.push_back(static_cast<double>(edges_ - edges0) /
                                    secs);
    add_window(m_.stats, s0, server_.stats());
    add_window(m_.pool, p0, parct::par::stats::snapshot());
    return true;
  }

  // Step loop: rounds of `outstanding` query batches answered by one
  // step() each, for `seconds`.
  void step_queries(double seconds) {
    const std::uint64_t items0 = items_;
    const auto t0 = Clock::now();
    std::vector<std::future<QueryResult>> futs;
    std::vector<std::size_t> rings;
    while (seconds_between(t0, Clock::now()) < seconds) {
      futs.clear();
      rings.clear();
      const auto ts = Clock::now();
      for (std::size_t k = 0; k < spec_.outstanding_queries; ++k) {
        rings.push_back(ring_next());
        futs.push_back(server_.submit_queries(in_.queries[rings.back()]));
        ++report_.attempted;
      }
      server_.step();
      for (std::size_t k = 0; k < futs.size(); ++k) {
        take_query(futs[k], rings[k], ts, true);
      }
    }
    const double secs = seconds_between(t0, Clock::now());
    m_.query_seconds += secs;
    m_.window_queries_per_s.push_back(static_cast<double>(items_ - items0) /
                                      secs);
  }

  // Engine loop: `outstanding` query batches kept in flight for
  // `seconds` (closed loop), counted in windows of `window_s`. With
  // `period_s` > 0, updates up to `updates_end` are also submitted on a
  // fixed schedule (open loop) and timed from their due time by a waiter
  // thread.
  void engine_traffic(double seconds, double window_s, double period_s,
                      std::size_t updates_end) {
    struct Pending {
      std::future<UpdateResult> fut;
      Clock::time_point due;
      std::size_t index = 0;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool closing = false;
    // Written by the waiter only; read after it is joined.
    std::vector<std::string> waiter_failures;
    Clock::time_point waiter_last_ack{};
    std::thread waiter([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return closing || !pending.empty(); });
          if (pending.empty()) return;
          p = std::move(pending.front());
          pending.pop_front();
        }
        try {
          const UpdateResult r = p.fut.get();
          waiter_last_ack = Clock::now();
          record_update(p.index, r, true, us_between(p.due, waiter_last_ack),
                        &waiter_failures);
        } catch (const std::exception& e) {
          waiter_failures.push_back("update " + std::to_string(p.index) +
                                    " rejected: " + e.what());
        }
      }
    });
    // Joins the waiter once every pending update has resolved, also when
    // the client loop throws.
    struct Joiner {
      std::thread& t;
      std::mutex& mu;
      std::condition_variable& cv;
      bool& closing;
      ~Joiner() {
        {
          std::lock_guard<std::mutex> lk(mu);
          closing = true;
        }
        cv.notify_all();
        t.join();
      }
    };

    struct Outstanding {
      std::future<QueryResult> fut;
      std::size_t ring = 0;
      Clock::time_point submitted;
    };
    std::deque<Outstanding> out;
    const ServiceStats s0 = server_.stats();
    const auto p0 = parct::par::stats::snapshot();
    const auto t_start = Clock::now();
    const auto t_end =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(period_s));
    auto next_due = t_start;
    const std::size_t first_sample = m_.update_us.size();
    const std::uint64_t edges0 = edges_;
    Clock::time_point t_stop;
    auto window_start = t_start;
    std::uint64_t window_items = items_;
    auto close_window = [&](Clock::time_point now, bool last) {
      // A sliver left at the end folds into nothing rather than
      // becoming a window of its own.
      if (last && window_start != t_start &&
          seconds_between(window_start, now) < window_s / 2) {
        return;
      }
      m_.window_queries_per_s.push_back(
          static_cast<double>(items_ - window_items) /
          seconds_between(window_start, now));
      window_start = now;
      window_items = items_;
    };
    {
      const Joiner joiner{waiter, mu, cv, closing};
      for (;;) {
        auto now = Clock::now();
        if (now >= t_end) {
          t_stop = now;
          close_window(now, true);
          break;
        }
        if (seconds_between(window_start, now) >= window_s) {
          close_window(now, false);
        }
        while (next_ < updates_end && next_due <= now) {
          UpdateRequest u;
          u.batch = in_.batches[next_];
          m_.late_us.push_back(us_between(next_due, Clock::now()));
          Pending p{server_.submit_update(std::move(u)), next_due, next_};
          ++report_.attempted;
          {
            std::lock_guard<std::mutex> lk(mu);
            pending.push_back(std::move(p));
          }
          cv.notify_all();
          ++next_;
          next_due += period;
          now = Clock::now();
        }
        while (out.size() < spec_.outstanding_queries) {
          const std::size_t ring = ring_next();
          out.push_back({server_.submit_queries(in_.queries[ring]), ring,
                         Clock::now()});
          ++report_.attempted;
        }
        const auto wake =
            next_ < updates_end ? std::min(t_end, next_due) : t_end;
        if (out.front().fut.wait_until(wake) == std::future_status::ready) {
          take_query(out.front().fut, out.front().ring, out.front().submitted,
                     true);
          out.pop_front();
        }
      }
      if (period_s > 0) {
        add_window(m_.stats, s0, server_.stats());
        add_window(m_.pool, p0, parct::par::stats::snapshot());
      }
      // Batches still in flight resolve after the window: checked, not
      // counted.
      for (Outstanding& o : out) {
        take_query(o.fut, o.ring, o.submitted, false);
      }
    }
    for (const std::string& f : waiter_failures) report_.fail(f);
    m_.query_seconds += seconds_between(t_start, t_stop);
    if (period_s > 0) {
      last_ack_ = waiter_last_ack;
      const double secs = seconds_between(t_start, waiter_last_ack);
      m_.update_seconds += secs;
      m_.window_edges_per_s.push_back(static_cast<double>(edges_ - edges0) /
                                      secs);
      // The waiter records updates in submission order: consecutive runs
      // of window_s / period_s updates share a window.
      const auto per_window = static_cast<std::size_t>(
          std::max(1.0, std::round(window_s / period_s)));
      const std::vector<double>& u = m_.update_us;
      for (std::size_t i = first_sample; i < u.size(); i += per_window) {
        const std::size_t end = std::min(u.size(), i + per_window);
        m_.window_update_p50_us.push_back(median(std::vector<double>(
            u.begin() + static_cast<std::ptrdiff_t>(i),
            u.begin() + static_cast<std::ptrdiff_t>(end))));
      }
    }
  }

 private:
  std::size_t ring_next() { return ring_++ % in_.queries.size(); }

  void record_update(std::size_t index, const UpdateResult& r, bool timed,
                     double latency_us,
                     std::vector<std::string>* failures = nullptr) {
    if (r.version != index + 1) {
      const std::string what = "update " + std::to_string(index) +
                               " acknowledged version " +
                               std::to_string(r.version);
      if (failures) {
        failures->push_back(what);
      } else {
        report_.fail(what);
      }
    }
    if (!timed) return;
    edges_ += in_.batches[index].size();
    m_.update_us.push_back(latency_us);
    m_.affected_total.push_back(static_cast<double>(r.stats.total_affected));
    m_.rounds.push_back(r.stats.rounds);
    m_.chose_serial.push_back(static_cast<double>(r.stats.chose_serial));
    m_.ws_misses += r.stats.ws_misses;
    m_.ws_container_growths += r.stats.ws_container_growths;
  }

  // Collects one query batch's answer; keeps a sample for the model check.
  void take_query(std::future<QueryResult>& fut, std::size_t ring,
                  Clock::time_point submitted, bool timed) {
    try {
      QueryResult r = fut.get();
      if (timed) {
        m_.query_us.push_back(us_between(submitted, Clock::now()));
        items_ += in_.queries[ring].size();
      }
      if (answered_++ % kSampleEvery == 0 && samples_.size() < kMaxSamples) {
        samples_.push_back({r.version, ring, std::move(r)});
      }
    } catch (const std::exception& e) {
      report_.fail(std::string("query batch rejected: ") + e.what());
    }
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  BatchServer& server_;
  Report& report_;
  ServeResult m_;
  std::size_t next_ = 0;
  std::size_t ring_ = 0;
  std::size_t answered_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t items_ = 0;
  bool have_ack_ = false;
  Clock::time_point last_ack_{};
  std::vector<QuerySample> samples_;
};

// Replays the model forest through every applied update and checks each
// sampled query batch at the version it reports, then the final snapshot
// against a from-scratch build.
void check_outputs(const Inputs& in, std::vector<QuerySample> samples,
                   const Snapshot& final_snap, Report& report) {
  std::sort(samples.begin(), samples.end(),
            [](const QuerySample& a, const QuerySample& b) {
              return a.version < b.version;
            });
  parct::forest::Forest model = in.initial;
  std::size_t si = 0;
  for (std::uint64_t v = 0; v <= final_snap.version; ++v) {
    if (v > 0) apply_batch(model, in.batches[v - 1]);
    if (si == samples.size() || samples[si].version != v) continue;
    const std::vector<VertexId> roots = forest_roots(model);
    const std::vector<Weight> tw = tree_weights_by_root(roots, in.weights);
    for (; si < samples.size() && samples[si].version == v; ++si) {
      ++report.attempted;
      QueryResult expect =
          model_answer(in.queries[samples[si].ring], roots, tw);
      expect.version = v;
      if (!same_answers(samples[si].result, expect)) {
        report.fail("query batch answered at version " + std::to_string(v) +
                    " differs from the model");
      }
    }
  }
  for (; si < samples.size(); ++si) {
    report.fail("query batch reports version " +
                std::to_string(samples[si].version) + " past the last update");
  }
  ++report.attempted;
  const std::string err =
      check_against_scratch(final_snap, model, in.weights, in.coin_seed);
  if (!err.empty()) report.fail("final snapshot vs from-scratch: " + err);
}

}  // namespace

void apply_batch(parct::forest::Forest& f, const parct::forest::ChangeSet& m) {
  for (const parct::Edge& e : m.remove_edges) f.cut(e.child);
  for (const parct::Edge& e : m.add_edges) f.link(e.child, e.parent);
}

bool same_answers(const QueryResult& a, const QueryResult& b) {
  return a.version == b.version && a.roots == b.roots &&
         a.connected == b.connected && a.tree_weights == b.tree_weights;
}

std::string compare_snapshots(const Snapshot& a, const Snapshot& b) {
  if (a.version != b.version) {
    return "version " + std::to_string(a.version) + " vs " +
           std::to_string(b.version);
  }
  if (a.events.size() != b.events.size() ||
      a.weights.size() != b.weights.size() ||
      a.accumulators.size() != b.accumulators.size()) {
    return "table sizes differ";
  }
  for (std::size_t v = 0; v < a.events.size(); ++v) {
    const parct::rc::Event& x = a.events[v];
    const parct::rc::Event& y = b.events[v];
    if (x.kind != y.kind || x.round != y.round || x.into != y.into ||
        x.over != y.over) {
      return "event of vertex " + std::to_string(v) + " differs";
    }
  }
  for (std::size_t v = 0; v < a.weights.size(); ++v) {
    if (a.weights[v] != b.weights[v]) {
      return "weight of vertex " + std::to_string(v) + " differs";
    }
  }
  for (std::size_t v = 0; v < a.accumulators.size(); ++v) {
    if (a.accumulators[v] != b.accumulators[v]) {
      return "tree aggregate of vertex " + std::to_string(v) + " differs";
    }
  }
  return "";
}

std::string check_against_scratch(const Snapshot& snap,
                                  const parct::forest::Forest& model,
                                  const std::vector<Weight>& weights,
                                  std::uint64_t coin_seed) {
  parct::contract::ContractionForest c(model.capacity(), model.degree_bound(),
                                       coin_seed);
  parct::contract::construct(c, model);
  const parct::rc::RCForest rcf(c);
  const parct::rc::TreeAggregate<Weight> agg(rcf, weights);
  Snapshot fresh;
  fresh.assign_from(rcf, &agg, snap.version);
  return compare_snapshots(snap, fresh);
}

namespace {

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Pool start, set-up(s), warm-up, timed traffic, crash, output checks and
// recovery(ies); adds its measurements to `res`.
void episode(const WorkloadSpec& spec, const Inputs& in, double seconds,
             const std::string& dir, bool single, ServeResult& res,
             Report& report) {
  // A fresh pool recalibrates the serial cutover, as a process start does.
  parct::par::scheduler::shutdown();
  parct::par::scheduler::initialize(spec.pool_workers);
  res.serial_cutover.push_back(
      static_cast<double>(parct::par::serial_cutover()));

  fs::remove_all(dir);
  const auto t_setup = Clock::now();
  Served live = set_up(spec, in, dir);
  res.setup_s.push_back(seconds_between(t_setup, Clock::now()));

  Run run(spec, in, *live.server, report);
  // Warm-up: grows every reused buffer before timing.
  for (std::size_t i = 0; i < spec.warmup_updates; ++i) {
    run.closed_update(false);
  }
  if (spec.loop == Loop::kMixed) {
    run.engine_traffic(0.05, 0.05, 0, run.next_update());
    run.reset_measurements();
    run.engine_traffic(seconds, kMixedWindowS, spec.update_period_s,
                       in.batches.size());
  } else {
    run.reset_measurements();
    // Update cycles interleaved with query bursts that take
    // query_phase_share of the time, so both sample the whole run.
    // Another cycle starts only while it would end nearer the budget.
    const double q = spec.query_phase_share;
    const auto t0 = Clock::now();
    double last = 0;
    while (seconds_between(t0, Clock::now()) + last / 2 < seconds) {
      const auto c0 = Clock::now();
      if (!run.update_cycle()) break;
      const double burst = seconds_between(c0, Clock::now()) * q / (1 - q);
      if (spec.loop == Loop::kStep) {
        run.step_queries(burst);
      } else {
        run.engine_traffic(burst, burst, 0, run.next_update());
      }
      last = seconds_between(c0, Clock::now());
    }
  }
  // The high-water mark of set-up and serving, read before the first
  // crash: the checks, recoveries and set-ups of later episodes only add
  // allocator churn the program does not have when it serves.
  if (res.peak_rss_mb == 0) res.peak_rss_mb = peak_rss_mb();

  const ServeResult& m = run.measured();
  // Per-window figures go to standard error for diagnosing a spread.
  std::fprintf(stderr, "episode %zu: serial cutover %.0f; update p50 us:",
               res.serial_cutover.size(), res.serial_cutover.back());
  for (double w : m.window_update_p50_us) std::fprintf(stderr, " %.0f", w);
  std::fprintf(stderr, "; queries/s:");
  for (double w : m.window_queries_per_s) std::fprintf(stderr, " %.3g", w);
  std::fprintf(stderr, "\n");
  append(res.window_update_p50_us, m.window_update_p50_us);
  append(res.window_edges_per_s, m.window_edges_per_s);
  append(res.window_queries_per_s, m.window_queries_per_s);
  append(res.update_us, m.update_us);
  append(res.query_us, m.query_us);
  append(res.late_us, m.late_us);
  append(res.affected_total, m.affected_total);
  append(res.rounds, m.rounds);
  append(res.chose_serial, m.chose_serial);
  res.ws_misses += m.ws_misses;
  res.ws_container_growths += m.ws_container_growths;
  res.update_seconds += m.update_seconds;
  res.query_seconds += m.query_seconds;
  add_window(res.stats, ServiceStats{}, m.stats);
  add_window(res.pool, parct::par::stats::PoolCounters{}, m.pool);

  res.updates_applied = run.next_update();
  res.final_version = live.server->version();
  const SnapshotHandle final_snap = live.server->snapshot();
  if (res.final_version != res.updates_applied) {
    report.fail("server version " + std::to_string(res.final_version) +
                " after " + std::to_string(res.updates_applied) + " updates");
  }

  // The crash: no final checkpoint.
  live.crash();

  check_outputs(in, std::move(run.samples()), *final_snap, report);

  const int recoveries = single ? 1 : kRecoveries;
  for (int r = 0; r < recoveries; ++r) {
    ++report.attempted;
    const auto t0 = Clock::now();
    parct::service::RecoveredServer rec =
        BatchServer::recover(dir, config_for(spec));
    if (spec.loop != Loop::kStep) rec.server->start();
    res.recover_s.push_back(seconds_between(t0, Clock::now()));
    res.recovery_replayed = rec.replayed;
    const SnapshotHandle snap = rec.server->snapshot();
    std::string err;
    if (rec.version != res.final_version) {
      err = "recovered version " + std::to_string(rec.version) +
            ", last acknowledged " + std::to_string(res.final_version);
    }
    if (err.empty()) err = compare_snapshots(*final_snap, *snap);
    for (std::size_t q = 0; err.empty() && q < 4; ++q) {
      if (!same_answers(answer_on(*snap, in.queries[q]),
                        answer_on(*final_snap, in.queries[q]))) {
        err = "answers differ from the pre-crash snapshot";
      }
    }
    if (!err.empty()) report.fail("recovery " + std::to_string(r) + ": " + err);
  }
  fs::remove_all(dir);
}

}  // namespace

int episode_count(const WorkloadSpec& spec, double seconds, bool single) {
  if (single) return 1;
  return std::max(
      1, static_cast<int>(std::lround(seconds / spec.episode_seconds)));
}

ServeResult serve(const WorkloadSpec& spec, const Inputs& in, double seconds,
                  const std::string& dir, bool single, Report& report) {
  ServeResult res;
  const int episodes = episode_count(spec, seconds, single);
  for (int e = 0; e < episodes; ++e) {
    episode(spec, in, seconds / episodes, dir, single, res, report);
  }
  return res;
}

}  // namespace perfbench
