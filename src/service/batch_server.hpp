// BatchServer: epoch-based concurrent serving on top of the contraction
// structure — the "dynamic AND parallel" shape the paper motivates, turned
// into a query/update pipeline.
//
// Requests are admitted into bounded queues (submitters block when full:
// backpressure, not unbounded memory). The epoch engine repeatedly
// coalesces every pending query batch plus at most one update batch into
// an epoch, and runs every epoch the same way, one phase after the other
// on the work-stealing pool:
//
//   1. pins the current Snapshot (version v),
//   2. validates the update batch, propagates it with
//      DynamicUpdater::apply, appends it to the WAL, repairs the derived
//      layers incrementally over DynamicUpdater::touched()
//      (RCForest::refresh + TreeAggregate::prepare_update/apply_update),
//      builds version v+1 into a recycled snapshot buffer, publishes it,
//      and resolves the update's future,
//   3. fans the epoch's queries out with parallel_for against the snapshot
//      pinned in step 1 — so a query coalesced with an update reports v.
//
// Readers never observe a half-propagated round: they only ever see
// published snapshots, and a snapshot is only published after apply() and
// the derived-layer repair complete. Every QueryResult carries the version
// it was answered at, which is what lets the tests cross-check concurrent
// histories against a serialized oracle.
//
// Pool ownership: while the server is start()ed, its engine thread is the
// only external thread driving the fork-join pool (the scheduler maps all
// non-pool threads onto worker 0's deque, so a second forking thread
// would race on it). Do not run parct parallel operations from other
// threads, and do not re-initialize the scheduler, between start() and
// stop().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "contraction/dynamic_update.hpp"
#include "forest/change_set.hpp"
#include "parallel/capability.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"
#include "service/snapshot.hpp"

namespace parct::durability {
class Manager;
}  // namespace parct::durability

namespace parct::service {

// --- failure semantics ------------------------------------------------
//
// Every admitted request's future resolves — with a value, or with one of
// the error types below. The server never wedges a future: stop() rejects
// everything still parked or queued, deadlines reject late requests, the
// shedder rejects stale ones, and an aborted update epoch either retries
// to success or rejects its batch. All errors derive from ServiceError
// (itself a std::runtime_error), so callers can catch coarsely or
// per-cause.

/// Base class of every rejection the serving layer reports.
struct ServiceError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// The server stopped before (or while) the request could be served.
struct ServerStopped : ServiceError {
  using ServiceError::ServiceError;
};
/// A submit_*_for deadline expired — either awaiting admission on a full
/// queue, or in the queue before the request's epoch started.
struct DeadlineExceeded : ServiceError {
  using ServiceError::ServiceError;
};
/// A stale query batch was shed under overload (queue depth crossed
/// ServiceConfig::query_shed_high_water at epoch admission).
struct QueryShed : ServiceError {
  using ServiceError::ServiceError;
};
/// The request was dropped at queue admission (fault-injection site
/// `queue-admission`; models an admission-control drop).
struct AdmissionDropped : ServiceError {
  using ServiceError::ServiceError;
};
/// An update epoch aborted at the apply boundary and exhausted its
/// retries; the batch was NOT applied and the structure is unchanged.
struct EpochAborted : ServiceError {
  using ServiceError::ServiceError;
};
/// The WAL append for an applied update failed: the update is NOT durable
/// and its future rejects. In-memory state now leads durable state, so
/// the server fail-stops further updates (queries keep serving the last
/// published — durable — version); recovery from disk restores exactly
/// the acknowledged history.
struct DurabilityLost : ServiceError {
  using ServiceError::ServiceError;
};

struct ServiceConfig {
  /// Bounded admission queues; submit_* blocks (backpressure) while full.
  std::size_t max_pending_updates = 16;
  std::size_t max_pending_query_batches = 256;

  /// Check every batch's preconditions (forest/change_set.hpp) against the
  /// live structure before applying, with rc::validate_change_set;
  /// invalid batches reject their future with std::invalid_argument
  /// instead of corrupting the structure. Costs O(m log n) expected per
  /// batch of m; O(n) only on the exact path, for a batch that re-links
  /// inside one pre-edit tree (counted in ServiceStats::validate_fallbacks).
  bool validate_updates = true;

  /// Re-attempts of an update epoch whose apply aborted at the boundary
  /// (fault::InjectedFault — raised before any mutation, so re-applying
  /// the batch against the still-published version is sound). 0 disables
  /// retry; retries beyond the cap reject the batch with EpochAborted.
  unsigned max_epoch_retries = 2;
  /// Backoff before retry k is retry_backoff << (k-1). Kept small so
  /// stepped tests stay fast; a real deployment would raise it.
  std::chrono::microseconds retry_backoff{200};
  /// Load shedding: when more query batches than this are pending at
  /// epoch admission, the *oldest* batches beyond the mark are rejected
  /// with QueryShed (they have waited longest and are the most stale).
  /// 0 disables shedding.
  std::size_t query_shed_high_water = 0;

  /// Durability (docs/DURABILITY.md). When set, every applied update's
  /// ChangeSet is appended to the manager's WAL and synced *before* the
  /// epoch publishes and the update's future resolves — an acknowledged
  /// update survives a crash. The manager must outlive the server; the
  /// server opens a fresh WAL segment at its initial version on
  /// construction. nullptr = in-memory only (the previous behavior).
  durability::Manager* durability = nullptr;
  /// Write a checkpoint (and truncate the WAL onto a fresh segment) every
  /// N applied updates. 0 disables background checkpointing — the WAL
  /// then grows until Manager::checkpoint is called out-of-band. A failed
  /// checkpoint write degrades gracefully: it is counted
  /// (ServiceStats::checkpoint_failures) and retried at the next
  /// interval, with the previous checkpoint still valid on disk.
  std::uint64_t checkpoint_every = 0;
};

/// One batch of independent read-only queries, answered together against
/// one pinned snapshot. Invalid (out-of-range / absent) ids are served
/// with defined sentinels: kNoVertex roots, 0 connectivity, 0 weights.
struct QueryBatch {
  std::vector<VertexId> roots;
  std::vector<std::pair<VertexId, VertexId>> connected;
  std::vector<VertexId> tree_weights;

  std::size_t size() const {
    return roots.size() + connected.size() + tree_weights.size();
  }
  bool empty() const { return size() == 0; }
};

struct QueryResult {
  /// Version the batch was answered at (snapshot pinned for the epoch).
  std::uint64_t version = 0;
  std::vector<VertexId> roots;
  std::vector<std::uint8_t> connected;
  std::vector<Weight> tree_weights;
};

struct UpdateRequest {
  forest::ChangeSet batch;
  /// Weights assigned (after the structural repair) to vertices the batch
  /// makes present — or re-assigned to existing vertices.
  std::vector<std::pair<VertexId, Weight>> vertex_weights;
};

struct UpdateResult {
  /// Version this update produced; snapshots at >= this version include it.
  std::uint64_t version = 0;
  contract::UpdateStats stats;
};

struct ServiceStats {
  std::uint64_t epochs = 0;
  /// Always 0: every epoch applies its update and then answers its
  /// queries on one thread. Kept because the serving benchmark in
  /// perfbench/ reads it.
  std::uint64_t overlapped_epochs = 0;
  std::uint64_t query_batches = 0;
  std::uint64_t queries_served = 0;  // individual query items
  std::uint64_t updates_applied = 0;
  std::uint64_t update_ops = 0;
  std::uint64_t updates_rejected = 0;
  std::uint64_t snapshots_published = 0;
  std::uint64_t snapshot_buffers_reused = 0;
  std::uint64_t snapshot_buffers_allocated = 0;
  /// Publishes that copied only the changed entries into the recycled
  /// buffer; the other snapshots_published copied every table.
  std::uint64_t snapshot_patches = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t max_query_queue_depth = 0;
  std::uint64_t max_update_queue_depth = 0;

  // Graceful-degradation counters (docs/OBSERVABILITY.md §3a).
  std::uint64_t queries_shed = 0;        ///< query items shed under overload
  std::uint64_t epoch_retries = 0;       ///< re-attempts of aborted epochs
  std::uint64_t deadline_rejections = 0; ///< requests rejected past deadline
  std::uint64_t degraded_epochs = 0;     ///< epochs run in serial fallback
  std::uint64_t admission_drops = 0;     ///< fault-injected admission drops

  // Durability counters (docs/DURABILITY.md; 0 without a manager).
  std::uint64_t wal_records = 0;         ///< records appended to the WAL
  std::uint64_t wal_bytes = 0;           ///< bytes in the current segment
  std::uint64_t checkpoints_written = 0; ///< checkpoints committed
  std::uint64_t checkpoint_failures = 0; ///< checkpoint writes that failed
  std::uint64_t recovery_replayed = 0;   ///< WAL records replayed by recover()

  /// Validations decided by the O(n) exact path (rc/validate_batch.hpp).
  std::uint64_t validate_fallbacks = 0;

  // Wall-clock accumulations.
  double epoch_seconds = 0;
  double query_seconds = 0;
  double update_seconds = 0;
  double publish_seconds = 0;
  double validate_seconds = 0;  ///< update-batch validation
  double wal_seconds = 0;       ///< WAL append, its sync included
};

struct RecoveredServer;

class BatchServer {
 public:
  /// Binds to a fully constructed structure. `weights` seeds the tree
  /// aggregate (missing entries default to 0). The server owns a
  /// DynamicUpdater on `c`; nothing else may mutate `c` while the server
  /// is alive. `initial_version` is the version the bound structure
  /// already represents (0 for a fresh structure; the recovered version
  /// when resuming from a durability directory) — the first applied
  /// update publishes initial_version + 1.
  explicit BatchServer(contract::ContractionForest& c,
                       ServiceConfig config = {},
                       std::vector<Weight> weights = {},
                       std::uint64_t initial_version = 0);
  ~BatchServer();

  /// Crash recovery (docs/DURABILITY.md): loads the newest valid
  /// checkpoint in `dir`, replays the WAL tail through
  /// DynamicUpdater::apply, and returns a server resuming at the
  /// recovered version with durability re-attached (`config.durability`
  /// is overwritten to point at the returned manager). Throws
  /// std::runtime_error if `dir` holds no valid checkpoint.
  static RecoveredServer recover(const std::string& dir,
                                 ServiceConfig config = {});

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Thread-safe. Blocks while the query queue is full; throws
  /// ServerStopped if called after stop(). The future resolves with the
  /// epoch that serves the batch — or with ServerStopped if stop() arrives
  /// while the submitter is parked on a full queue (the future is
  /// rejected, never left dangling).
  std::future<QueryResult> submit_queries(QueryBatch q)
      PARCT_EXCLUDES(mu_, stats_mu_);

  /// Thread-safe. Blocks while the update queue is full. Updates are
  /// applied in submission order; the future resolves after the produced
  /// version is published (read-your-writes: snapshot() then observes it).
  /// Rejected with ServerStopped if stop() arrives while parked.
  std::future<UpdateResult> submit_update(UpdateRequest u)
      PARCT_EXCLUDES(mu_, stats_mu_);

  /// Deadline-carrying variants: wait at most `timeout` for admission
  /// (rejecting the future with DeadlineExceeded on expiry), and carry the
  /// deadline into the queue — a request whose deadline has passed when
  /// its epoch starts is rejected with DeadlineExceeded instead of being
  /// served stale. Thread-safe; never blocks past the deadline.
  std::future<QueryResult> submit_queries_for(
      QueryBatch q, std::chrono::steady_clock::duration timeout)
      PARCT_EXCLUDES(mu_, stats_mu_);
  std::future<UpdateResult> submit_update_for(
      UpdateRequest u, std::chrono::steady_clock::duration timeout)
      PARCT_EXCLUDES(mu_, stats_mu_);

  /// Spawns the epoch engine thread. stop() drains both queues, processes
  /// everything still admitted, then joins; the destructor calls stop().
  /// stop() additionally unblocks every submitter parked on a full
  /// admission queue (their futures reject with ServerStopped) and, when
  /// no engine is running to drain them (step() mode), rejects all
  /// still-queued requests with ServerStopped — no future survives stop()
  /// unresolved.
  void start() PARCT_EXCLUDES(mu_);
  void stop() PARCT_EXCLUDES(mu_);

  /// Processes one epoch inline on the calling thread (all pending query
  /// batches + at most one update) through the same path the engine runs,
  /// without the engine thread — deterministic, single-threaded epoch
  /// semantics for tests (including SP-bags race-detector sessions).
  /// Returns false if there was nothing to do. Never mix with a start()ed
  /// engine.
  bool step() PARCT_EXCLUDES(mu_, stats_mu_);

  /// Degraded serial-fallback mode (any thread). Marking the pool
  /// unhealthy makes every subsequent epoch run under a
  /// scheduler::SerialScope on the engine thread: the update and the
  /// queries run sequentially, and the work-stealing pool is not touched
  /// at all — correct (slower) service while the pool is stalled, wedged,
  /// or being debugged. Counted in ServiceStats::degraded_epochs.
  void set_pool_healthy(bool healthy) {
    pool_healthy_.store(healthy, std::memory_order_relaxed);
  }
  bool pool_healthy() const {
    return pool_healthy_.load(std::memory_order_relaxed);
  }

  /// Pin of the currently published version (any thread).
  SnapshotHandle snapshot() const { return store_.acquire(); }

  /// Version produced by the most recently published update epoch.
  std::uint64_t version() const { return store_.version(); }

  ServiceStats stats() const PARCT_EXCLUDES(stats_mu_);

 private:
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  struct PendingQuery {
    QueryBatch batch;
    std::promise<QueryResult> promise;
    Deadline deadline;
  };
  struct PendingUpdate {
    UpdateRequest request;
    std::promise<UpdateResult> promise;
    Deadline deadline;
  };

  std::future<QueryResult> enqueue_queries(QueryBatch q, Deadline deadline)
      PARCT_EXCLUDES(mu_, stats_mu_);
  std::future<UpdateResult> enqueue_update(UpdateRequest u, Deadline deadline)
      PARCT_EXCLUDES(mu_, stats_mu_);

  // Wait predicates for the admission backpressure loops — explicit
  // REQUIRES(mu_) methods, never predicate lambdas (the analysis treats a
  // lambda as an unannotated function and would flag its guarded reads).
  bool query_space_free() const PARCT_REQUIRES(mu_) {
    return query_queue_.size() < cfg_.max_pending_query_batches;
  }
  bool update_space_free() const PARCT_REQUIRES(mu_) {
    return update_queue_.size() < cfg_.max_pending_updates;
  }
  bool work_pending() const PARCT_REQUIRES(mu_) {
    return !query_queue_.empty() || !update_queue_.empty();
  }

  /// Drains every pending query batch plus at most one update into an
  /// epoch (shared by engine_loop and step).
  void take_epoch(std::vector<PendingQuery>& queries,
                  std::optional<PendingUpdate>& update) PARCT_REQUIRES(mu_);

  // Admission-path stats bumps. stats_mu_ nests inside mu_ here (the
  // documented mu_ -> stats_mu_ order); keeping the inner acquisition in
  // these helpers keeps every stats_mu_ critical section tiny and visibly
  // leaf-level.
  void note_backpressure_wait() PARCT_EXCLUDES(stats_mu_);
  void note_deadline_rejection() PARCT_EXCLUDES(stats_mu_);
  void note_admission_drop() PARCT_EXCLUDES(stats_mu_);
  void note_query_depth(std::size_t depth) PARCT_EXCLUDES(stats_mu_);
  void note_update_depth(std::size_t depth) PARCT_EXCLUDES(stats_mu_);

  void engine_loop() PARCT_EXCLUDES(mu_, stats_mu_);
  bool process_epoch(std::vector<PendingQuery> queries,
                     std::optional<PendingUpdate> update)
      PARCT_EXCLUDES(mu_, stats_mu_);
  QueryResult answer(const QueryBatch& q, const Snapshot& snap) const;

  contract::ContractionForest& c_;
  contract::DynamicUpdater updater_;
  rc::RCForest rcf_;
  rc::TreeAggregate<Weight> agg_;
  SnapshotStore store_;
  // Update scratch, reused across epochs so the update path allocates
  // nothing in steady state: the ids the published version changed.
  std::vector<VertexId> changed_;
  ServiceConfig cfg_;
  std::uint64_t version_ = 0;  // engine/step thread only
  bool failed_ = false;        // an apply() threw mid-flight; updates halted
  std::atomic<bool> pool_healthy_{true};

  Mutex mu_;
  CondVar cv_work_;   // engine parks here; signaled on admission and stop
  CondVar cv_space_;  // submitters park here; signaled on drain and stop
  std::deque<PendingQuery> query_queue_ PARCT_GUARDED_BY(mu_);
  std::deque<PendingUpdate> update_queue_ PARCT_GUARDED_BY(mu_);
  bool stopping_ PARCT_GUARDED_BY(mu_) = false;
  bool started_ PARCT_GUARDED_BY(mu_) = false;
  // Guarded: start() writes the handle while a concurrent stop() must read
  // it — stop() moves it out under mu_ and joins outside the lock.
  // parct-lint: allow(raw-thread) reason: service engine thread handle
  std::thread engine_ PARCT_GUARDED_BY(mu_);

  // Leaf lock for the stats block; acquired inside mu_ on the admission
  // paths, never the other way around.
  mutable Mutex stats_mu_ PARCT_ACQUIRED_AFTER(mu_);
  ServiceStats stats_ PARCT_GUARDED_BY(stats_mu_);
};

/// Everything BatchServer::recover hands back. The server borrows the
/// forest and the manager, so keep all three alive together (and destroy
/// the server first — member order here does that).
struct RecoveredServer {
  std::unique_ptr<contract::ContractionForest> forest;
  std::shared_ptr<durability::Manager> manager;
  std::unique_ptr<BatchServer> server;
  std::uint64_t version = 0;   ///< version serving resumed at
  std::uint64_t replayed = 0;  ///< WAL records replayed past the checkpoint
};

}  // namespace parct::service
