#include "service/batch_server.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "analysis/annotations.hpp"
#include "analysis/shadow_keys.hpp"
#include "contraction/telemetry.hpp"
#include "durability/manager.hpp"
#include "fault/fault_injection.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scheduler.hpp"
#include "rc/validate_batch.hpp"

namespace parct::service {

static_assert(std::is_same_v<Weight, durability::Weight>,
              "the WAL/checkpoint weight encoding must match the serving "
              "weight type");

BatchServer::BatchServer(contract::ContractionForest& c, ServiceConfig config,
                         std::vector<Weight> weights,
                         std::uint64_t initial_version)
    : c_(c),
      updater_(c),
      rcf_(c),
      agg_(rcf_, std::move(weights)),
      cfg_(config),
      version_(initial_version) {
  // A durable server always appends to a segment based at its own initial
  // version; any same-named leftover holds only records recovery already
  // discarded (see durability::Manager::open_log).
  if (cfg_.durability) cfg_.durability->open_log(version_);
  auto buf = store_.begin_build();
  buf->assign_from(rcf_, &agg_, version_);
  store_.publish(std::move(buf));
}

BatchServer::~BatchServer() { stop(); }

std::future<QueryResult> BatchServer::submit_queries(QueryBatch q) {
  return enqueue_queries(std::move(q), std::nullopt);
}

std::future<QueryResult> BatchServer::submit_queries_for(
    QueryBatch q, std::chrono::steady_clock::duration timeout) {
  return enqueue_queries(std::move(q),
                         std::chrono::steady_clock::now() + timeout);
}

std::future<UpdateResult> BatchServer::submit_update(UpdateRequest u) {
  return enqueue_update(std::move(u), std::nullopt);
}

std::future<UpdateResult> BatchServer::submit_update_for(
    UpdateRequest u, std::chrono::steady_clock::duration timeout) {
  return enqueue_update(std::move(u),
                        std::chrono::steady_clock::now() + timeout);
}

std::future<QueryResult> BatchServer::enqueue_queries(QueryBatch q,
                                                      Deadline deadline) {
  std::promise<QueryResult> p;
  std::future<QueryResult> fut = p.get_future();
  {
    MutexLock lk(mu_);
    if (stopping_) {
      throw ServerStopped("BatchServer: submit_queries after stop()");
    }
    if (!query_space_free()) {
      note_backpressure_wait();
      while (!stopping_ && !query_space_free()) {
        if (deadline) {
          if (cv_space_.wait_until(lk, *deadline) == std::cv_status::timeout &&
              !stopping_ && !query_space_free()) {
            note_deadline_rejection();
            p.set_exception(std::make_exception_ptr(DeadlineExceeded(
                "BatchServer: admission deadline expired (query queue "
                "full)")));
            return fut;
          }
        } else {
          cv_space_.wait(lk);
        }
      }
      if (stopping_) {
        p.set_exception(std::make_exception_ptr(ServerStopped(
            "BatchServer: stopped while the batch awaited admission")));
        return fut;
      }
    }
    // Fault site: admission-control drop. The future rejects cleanly; the
    // request never enters the queue.
    if (PARCT_FAULT_POINT(fault::Site::kQueueAdmission)) {
      note_admission_drop();
      p.set_exception(std::make_exception_ptr(AdmissionDropped(
          "BatchServer: query batch dropped at queue admission")));
      return fut;
    }
    query_queue_.emplace_back(std::move(q), std::move(p), deadline);
    note_query_depth(query_queue_.size());
  }
  cv_work_.notify_all();
  return fut;
}

std::future<UpdateResult> BatchServer::enqueue_update(UpdateRequest u,
                                                      Deadline deadline) {
  std::promise<UpdateResult> p;
  std::future<UpdateResult> fut = p.get_future();
  {
    MutexLock lk(mu_);
    if (stopping_) {
      throw ServerStopped("BatchServer: submit_update after stop()");
    }
    if (!update_space_free()) {
      note_backpressure_wait();
      while (!stopping_ && !update_space_free()) {
        if (deadline) {
          if (cv_space_.wait_until(lk, *deadline) == std::cv_status::timeout &&
              !stopping_ && !update_space_free()) {
            note_deadline_rejection();
            p.set_exception(std::make_exception_ptr(DeadlineExceeded(
                "BatchServer: admission deadline expired (update queue "
                "full)")));
            return fut;
          }
        } else {
          cv_space_.wait(lk);
        }
      }
      if (stopping_) {
        p.set_exception(std::make_exception_ptr(ServerStopped(
            "BatchServer: stopped while the update awaited admission")));
        return fut;
      }
    }
    if (PARCT_FAULT_POINT(fault::Site::kQueueAdmission)) {
      note_admission_drop();
      p.set_exception(std::make_exception_ptr(AdmissionDropped(
          "BatchServer: update dropped at queue admission")));
      return fut;
    }
    update_queue_.emplace_back(std::move(u), std::move(p), deadline);
    note_update_depth(update_queue_.size());
  }
  cv_work_.notify_all();
  return fut;
}

void BatchServer::note_backpressure_wait() {
  MutexLock slk(stats_mu_);
  ++stats_.backpressure_waits;
}

void BatchServer::note_deadline_rejection() {
  MutexLock slk(stats_mu_);
  ++stats_.deadline_rejections;
}

void BatchServer::note_admission_drop() {
  MutexLock slk(stats_mu_);
  ++stats_.admission_drops;
}

void BatchServer::note_query_depth(std::size_t depth) {
  MutexLock slk(stats_mu_);
  stats_.max_query_queue_depth =
      std::max<std::uint64_t>(stats_.max_query_queue_depth, depth);
}

void BatchServer::note_update_depth(std::size_t depth) {
  MutexLock slk(stats_mu_);
  stats_.max_update_queue_depth =
      std::max<std::uint64_t>(stats_.max_update_queue_depth, depth);
}

void BatchServer::start() {
  MutexLock lk(mu_);
  if (started_) return;
  if (stopping_) {
    throw std::runtime_error("BatchServer: start() after stop()");
  }
  started_ = true;
  // The engine is a long-lived service thread, not a parallel-loop worker;
  // parallel work inside epochs still goes through parallel_for on the pool.
  // parct-lint: allow(raw-thread) reason: service engine thread
  engine_ = std::thread([this] { engine_loop(); });
}

void BatchServer::stop() {
  // Take the engine handle out under the lock, join outside it. engine_ is
  // written by start() under mu_, so the old unguarded joinable()/join()
  // here raced a concurrent start() — and two concurrent stop()s could
  // both pass the joinable() check and double-join. Moving the handle
  // gives exactly one caller ownership of the join.
  // parct-lint: allow(raw-thread) reason: joining the engine thread handle
  std::thread engine;
  {
    MutexLock lk(mu_);
    stopping_ = true;
    engine = std::move(engine_);
  }
  // Wake the engine (to drain and exit) and every submitter parked on a
  // full admission queue (their futures reject with ServerStopped).
  cv_work_.notify_all();
  cv_space_.notify_all();
  if (engine.joinable()) engine.join();
  // A started engine drained both queues before exiting; in step() mode
  // (no engine) admitted requests may still be queued. Reject them with a
  // documented error instead of letting their promises break on
  // destruction.
  std::deque<PendingQuery> qs;
  std::deque<PendingUpdate> us;
  {
    MutexLock lk(mu_);
    qs.swap(query_queue_);
    us.swap(update_queue_);
  }
  for (PendingQuery& pq : qs) {
    pq.promise.set_exception(std::make_exception_ptr(
        ServerStopped("BatchServer: stopped before the batch was served")));
  }
  for (PendingUpdate& pu : us) {
    pu.promise.set_exception(std::make_exception_ptr(
        ServerStopped("BatchServer: stopped before the update was applied")));
  }
}

void BatchServer::take_epoch(std::vector<PendingQuery>& queries,
                             std::optional<PendingUpdate>& update) {
  queries.reserve(query_queue_.size());
  while (!query_queue_.empty()) {
    queries.push_back(std::move(query_queue_.front()));
    query_queue_.pop_front();
  }
  if (!update_queue_.empty()) {
    update.emplace(std::move(update_queue_.front()));
    update_queue_.pop_front();
  }
}

void BatchServer::engine_loop() {
  for (;;) {
    std::vector<PendingQuery> queries;
    std::optional<PendingUpdate> update;
    {
      MutexLock lk(mu_);
      while (!stopping_ && !work_pending()) cv_work_.wait(lk);
      // stop() drains: keep processing admitted work, exit once empty.
      if (!work_pending()) break;
      take_epoch(queries, update);
    }
    cv_space_.notify_all();
    process_epoch(std::move(queries), std::move(update));
  }
}

bool BatchServer::step() {
  std::vector<PendingQuery> queries;
  std::optional<PendingUpdate> update;
  {
    MutexLock lk(mu_);
    if (!work_pending()) return false;
    take_epoch(queries, update);
  }
  cv_space_.notify_all();
  return process_epoch(std::move(queries), std::move(update));
}

QueryResult BatchServer::answer(const QueryBatch& q,
                                const Snapshot& snap) const {
  // Queries read only the pinned snapshot — never the live
  // ContractionForest/RCForest, which the epoch's update has already
  // moved past the pinned version (tools/lint_parallel.py enforces this
  // for service sources).
  QueryResult r;
  r.version = snap.version;
  // Each fan-out writes result cell i exactly once; the per-call nonces
  // keep the three result vectors (and reuses across calls) distinct in
  // the SP-bags shadow map, so the race detector proves the disjointness.
  PARCT_SHADOW_BUFFER(roots_buf);
  PARCT_SHADOW_BUFFER(connected_buf);
  PARCT_SHADOW_BUFFER(weights_buf);
  r.roots.resize(q.roots.size());
  par::parallel_for(0, q.roots.size(), [&](std::size_t i) {
    PARCT_SHADOW_WRITE(analysis::buffer_cell(roots_buf, i));
    r.roots[i] = snap.root(q.roots[i]);
  });
  r.connected.resize(q.connected.size());
  par::parallel_for(0, q.connected.size(), [&](std::size_t i) {
    PARCT_SHADOW_WRITE(analysis::buffer_cell(connected_buf, i));
    r.connected[i] =
        snap.connected(q.connected[i].first, q.connected[i].second) ? 1 : 0;
  });
  r.tree_weights.resize(q.tree_weights.size());
  par::parallel_for(0, q.tree_weights.size(), [&](std::size_t i) {
    PARCT_SHADOW_WRITE(analysis::buffer_cell(weights_buf, i));
    r.tree_weights[i] = snap.tree_weight(q.tree_weights[i]);
  });
  return r;
}

// One epoch, the same path for the engine, step() and degraded epochs.
// Every step that rejects the update resets `update`, so after step 7 a
// non-empty `update` is one this epoch published.
bool BatchServer::process_epoch(std::vector<PendingQuery> queries,
                                std::optional<PendingUpdate> update) {
  if (queries.empty() && !update) return false;
  const auto t_epoch = contract::stats_now();

  // Degraded serial fallback: while the pool is marked unhealthy the whole
  // epoch runs under a SerialScope on this thread — the update and the
  // queries run inline, and the work-stealing pool is never touched.
  const bool degraded = !pool_healthy_.load(std::memory_order_relaxed);
  std::optional<par::scheduler::SerialScope> serial;
  if (degraded) serial.emplace();

  // 1. Pin version v. The queries are answered against it in step 8,
  //    after this epoch's update has published v+1.
  const SnapshotHandle pinned = store_.acquire();
  const auto now = std::chrono::steady_clock::now();

  // 2. Overload shedding: reject the oldest (stalest) query batches beyond
  //    the high-water mark before doing any work for them.
  std::uint64_t shed_items = 0;
  if (cfg_.query_shed_high_water != 0 &&
      queries.size() > cfg_.query_shed_high_water) {
    const std::size_t drop = queries.size() - cfg_.query_shed_high_water;
    for (std::size_t i = 0; i < drop; ++i) {
      shed_items += queries[i].batch.size();
      queries[i].promise.set_exception(std::make_exception_ptr(QueryShed(
          "BatchServer: stale query batch shed under overload")));
    }
    queries.erase(queries.begin(),
                  queries.begin() + static_cast<std::ptrdiff_t>(drop));
  }

  // Deadline expiry: a request that out-waited its deadline in the queue
  // is rejected, not served stale.
  std::uint64_t deadline_rejected = 0;
  {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].deadline && *queries[i].deadline < now) {
        ++deadline_rejected;
        queries[i].promise.set_exception(std::make_exception_ptr(
            DeadlineExceeded("BatchServer: query deadline expired before "
                             "its epoch started")));
      } else {
        if (keep != i) queries[keep] = std::move(queries[i]);
        ++keep;
      }
    }
    queries.resize(keep);
  }
  if (update && update->deadline && *update->deadline < now) {
    ++deadline_rejected;
    update->promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
        "BatchServer: update deadline expired before its epoch started")));
    update.reset();
  }

  // 3. Admission control for the update: reject invalid batches (and any
  //    batch after a failed apply) before touching the structure.
  std::uint64_t rejected = 0;
  if (update && failed_) {
    update->promise.set_exception(std::make_exception_ptr(std::runtime_error(
        "BatchServer: an earlier update failed; updates halted")));
    update.reset();
    ++rejected;
  }
  // Validation reads the live structure and its RC roots, which equal the
  // published version here: the previous epoch refreshed them, and this
  // epoch's apply() has not started.
  double validate_secs = 0;
  std::uint64_t validate_fallbacks = 0;
  if (update && cfg_.validate_updates) {
    const auto t_v = contract::stats_now();
    const rc::ChangeSetVerdict verdict =
        rc::validate_change_set(rcf_, update->request.batch);
    validate_secs = contract::stats_since(t_v);
    if (verdict.exact) ++validate_fallbacks;
    if (verdict.error) {
      update->promise.set_exception(std::make_exception_ptr(
          std::invalid_argument("BatchServer: rejected update batch: " +
                                *verdict.error)));
      update.reset();
      ++rejected;
    }
  }

  // 4. Apply. An abort at the boundary is retried with backoff; any other
  //    failure may have left the structure half-edited, so updates halt.
  contract::UpdateStats ustats;
  std::uint64_t retries = 0;
  double update_secs = 0;
  if (update) {
    touched_.clear();
    const auto t0 = contract::stats_now();
    for (unsigned attempt = 0;; ++attempt) {
      try {
        // Fault site: abort at the apply boundary. An InjectedFault is
        // raised before DynamicUpdater::apply mutates anything, so the
        // live structure still equals the published version and the batch
        // can simply be re-applied — epochs are idempotent up to publish.
        if (PARCT_FAULT_POINT(fault::Site::kEpochApply)) {
          throw fault::InjectedFault(fault::Site::kEpochApply);
        }
        ustats = updater_.apply(update->request.batch, &touched_);
        break;
      } catch (const fault::InjectedFault&) {
        if (attempt >= cfg_.max_epoch_retries) {
          // Clean rejection: every attempt aborted at the boundary, the
          // structure is untouched, and the server stays healthy for
          // subsequent updates.
          update->promise.set_exception(std::make_exception_ptr(EpochAborted(
              "BatchServer: update epoch aborted at the apply boundary "
              "after " +
              std::to_string(cfg_.max_epoch_retries) + " retr" +
              (cfg_.max_epoch_retries == 1 ? "y" : "ies"))));
          update.reset();
          break;
        }
        ++retries;
        std::this_thread::sleep_for(cfg_.retry_backoff *
                                    (1u << std::min(attempt, 10u)));
      } catch (...) {
        failed_ = true;
        update->promise.set_exception(std::current_exception());
        update.reset();
        break;
      }
    }
    update_secs = contract::stats_since(t0);
  }

  // 5. Write-ahead: the applied batch must be durable before the version
  //    publishes and the submitter's future resolves. Logging *after* a
  //    successful apply keeps the WAL equal to the exactly-applied history
  //    (an EpochAborted batch never reaches the log); logging *before*
  //    publish keeps every acknowledged update durable.
  double wal_secs = 0;
  if (update && cfg_.durability) {
    const auto t_w = contract::stats_now();
    try {
      cfg_.durability->append(version_ + 1, update->request.batch,
                              update->request.vertex_weights);
      wal_secs = contract::stats_since(t_w);
    } catch (...) {
      // The in-memory structure now leads the durable state (the segment
      // tail may even be torn). Fail-stop for updates: this future rejects
      // (the update was NOT acknowledged), the version is not published,
      // and later updates are refused — while queries keep serving the
      // last published (fully durable) snapshot. Recovery from disk
      // restores exactly the acknowledged history.
      failed_ = true;
      update->promise.set_exception(std::make_exception_ptr(
          DurabilityLost("BatchServer: WAL append failed; the update was "
                         "applied in memory but is not durable")));
      update.reset();
    }
  }

  double publish_secs = 0;
  if (update) {
    const auto t_p = contract::stats_now();
    // 6. Repair the derived layers over the affected region: the touched
    //    set is the event-fired vertices plus the batch's V- (which fires
    //    no event). prepare_update must see the pre-refresh events (old
    //    representatives), so it runs before refresh.
    std::vector<VertexId>& tv = touched_.vertices();
    tv.insert(tv.end(), update->request.batch.remove_vertices.begin(),
              update->request.batch.remove_vertices.end());
    agg_.prepare_update(tv);
    rcf_.refresh(tv);
    agg_.apply_update();
    // The ids this version changes, for the snapshot patch: the repair
    // region (which holds every refreshed event and every rewritten
    // accumulator) plus each reweighted vertex's representative chain.
    const std::vector<VertexId>& region = agg_.last_region();
    changed_.assign(region.begin(), region.end());
    for (const auto& [v, w] : update->request.vertex_weights) {
      if (v < rcf_.size() && rcf_.present(v)) {
        agg_.set_weight(v, w);
        for (VertexId u = v; u != kNoVertex; u = rcf_.representative(u)) {
          changed_.push_back(u);
        }
      }
    }
    // 7. Publish v+1, then resolve the future: a waiter that then calls
    //    snapshot() observes its own write — including after a retried
    //    epoch (read-your-writes holds across retries).
    ++version_;
    store_.publish_changes(rcf_, &agg_, version_, changed_);
    publish_secs = contract::stats_since(t_p);
    update->promise.set_value(UpdateResult{version_, ustats});
  }

  // 8. Answer the queries against the snapshot pinned in step 1.
  const auto t_q = contract::stats_now();
  std::uint64_t queries_answered = 0;
  for (PendingQuery& pq : queries) {
    try {
      QueryResult qr = answer(pq.batch, *pinned);
      queries_answered += pq.batch.size();
      pq.promise.set_value(std::move(qr));
    } catch (...) {
      // A failed fan-out (e.g. an injected allocation failure surfacing
      // through a parallel task) rejects this batch only; the epoch and
      // the remaining batches proceed.
      pq.promise.set_exception(std::current_exception());
    }
  }
  const double query_secs = contract::stats_since(t_q);

  // 9. Background checkpointing: roll the WAL up into a fresh checkpoint
  //    every checkpoint_every updates. Failure here is degradation, not an
  //    error: the rename is the commit point, so the previous checkpoint
  //    (plus the still-growing WAL) remains a complete recovery image, and
  //    the next interval retries.
  std::uint64_t checkpoint_failed = 0;
  if (update && cfg_.durability && cfg_.checkpoint_every != 0 &&
      version_ % cfg_.checkpoint_every == 0) {
    try {
      cfg_.durability->checkpoint(c_, agg_.weights(), version_);
    } catch (...) {
      ++checkpoint_failed;
    }
  }
  const double epoch_secs = contract::stats_since(t_epoch);

  {
    MutexLock slk(stats_mu_);
    ++stats_.epochs;
    if (degraded) ++stats_.degraded_epochs;
    stats_.query_batches += queries.size();
    stats_.queries_served += queries_answered;
    stats_.updates_rejected += rejected;
    stats_.queries_shed += shed_items;
    stats_.deadline_rejections += deadline_rejected;
    stats_.epoch_retries += retries;
    stats_.checkpoint_failures += checkpoint_failed;
    stats_.validate_fallbacks += validate_fallbacks;
    if (update) {
      ++stats_.updates_applied;
      stats_.update_ops += update->request.batch.size();
    }
    stats_.epoch_seconds += epoch_secs;
    stats_.query_seconds += query_secs;
    stats_.update_seconds += update_secs;
    stats_.publish_seconds += publish_secs;
    stats_.validate_seconds += validate_secs;
    stats_.wal_seconds += wal_secs;
  }
  return true;
}

ServiceStats BatchServer::stats() const {
  ServiceStats s;
  {
    MutexLock slk(stats_mu_);
    s = stats_;
  }
  s.snapshots_published = store_.published();
  s.snapshot_buffers_reused = store_.buffers_reused();
  s.snapshot_buffers_allocated = store_.buffers_allocated();
  s.snapshot_patches = store_.patches();
  if (cfg_.durability) {
    s.wal_records = cfg_.durability->wal_records();
    s.wal_bytes = cfg_.durability->wal_bytes();
    s.checkpoints_written = cfg_.durability->checkpoints_written();
  }
  return s;
}

RecoveredServer BatchServer::recover(const std::string& dir,
                                     ServiceConfig config) {
  durability::RecoveredState st = durability::Manager::recover(dir);
  RecoveredServer out;
  out.forest = std::move(st.forest);
  out.manager = std::make_shared<durability::Manager>(dir);
  out.version = st.version;
  out.replayed = st.replayed;
  config.durability = out.manager.get();
  out.server = std::make_unique<BatchServer>(*out.forest, config,
                                             std::move(st.weights), st.version);
  {
    MutexLock slk(out.server->stats_mu_);
    out.server->stats_.recovery_replayed = st.replayed;
  }
  return out;
}

}  // namespace parct::service
