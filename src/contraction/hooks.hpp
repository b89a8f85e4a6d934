// User-defined contraction event callbacks: the paper's DoFinalize, DoRake
// and DoCompress (Fig. 2), which applications use to accumulate data during
// contraction (e.g. RC-tree style aggregates, expression evaluation).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "forest/types.hpp"
#include "parallel/capability.hpp"

namespace parct::contract {

/// Contract: callbacks fire from parallel regions, but at most once per
/// vertex per round within one construction or propagation pass, and never
/// concurrently for the same vertex. During a dynamic update, callbacks are
/// re-invoked for re-executed (affected) vertices — implementations must
/// treat an event as *overwriting* any previous event for that vertex.
class EventHooks {
 public:
  virtual ~EventHooks() = default;

  /// Called once, single-threaded, before any parallel phase of a
  /// construction or dynamic update, with the structure's (possibly just
  /// grown) vertex capacity. Value layers use it to size their storage so
  /// the parallel callbacks never reallocate shared vectors.
  virtual void on_begin(std::size_t capacity) { (void)capacity; }

  /// v finalizes in `round` (isolated root; its tree is fully contracted).
  virtual void on_finalize(std::uint32_t round, VertexId v) {
    (void)round; (void)v;
  }
  /// v (a non-root leaf) rakes into `parent` in `round`.
  virtual void on_rake(std::uint32_t round, VertexId v, VertexId parent) {
    (void)round; (void)v; (void)parent;
  }
  /// v (unary) compresses in `round`; its child `child` is linked to
  /// `parent` in the next round.
  virtual void on_compress(std::uint32_t round, VertexId v, VertexId child,
                           VertexId parent) {
    (void)round; (void)v; (void)child; (void)parent;
  }

  /// The edge v -> parent survives `round` unchanged (both endpoints
  /// survive). Together with on_compress — which replaces the surviving
  /// child's edge by the concatenation over the compressed vertex — these
  /// two callbacks describe the complete life of every edge, which is what
  /// per-edge value layers (e.g. rc::PathAggregate) need. Exactly one of
  /// {on_edge_persist(·, v, ·), on_compress(·, parent-of-v, v, ·)} fires
  /// per surviving non-root v per round.
  virtual void on_edge_persist(std::uint32_t round, VertexId v,
                               VertexId parent) {
    (void)round; (void)v; (void)parent;
  }

  /// v survives `round` (fires for every survivor, roots included,
  /// exactly once per round). Fired from v's own loop iteration, so the
  /// implementation may freely read v's round-`round` record and its
  /// children's round-`round` state, and write v's round-(round+1) value
  /// slots (e.g. folding in children that rake this round, as
  /// rc::SubtreeAggregate does).
  virtual void on_vertex_persist(std::uint32_t round, VertexId v) {
    (void)round; (void)v;
  }
};

/// Fans every event out to several hook sinks (e.g. two value layers
/// maintained over one structure). Does not own the sinks.
class MultiHooks final : public EventHooks {
 public:
  MultiHooks() = default;
  MultiHooks(std::initializer_list<EventHooks*> sinks) : sinks_(sinks) {}
  void add(EventHooks* sink) { sinks_.push_back(sink); }

  void on_begin(std::size_t capacity) override {
    for (EventHooks* s : sinks_) s->on_begin(capacity);
  }
  void on_finalize(std::uint32_t round, VertexId v) override {
    for (EventHooks* s : sinks_) s->on_finalize(round, v);
  }
  void on_rake(std::uint32_t round, VertexId v, VertexId parent) override {
    for (EventHooks* s : sinks_) s->on_rake(round, v, parent);
  }
  void on_compress(std::uint32_t round, VertexId v, VertexId child,
                   VertexId parent) override {
    for (EventHooks* s : sinks_) s->on_compress(round, v, child, parent);
  }
  void on_edge_persist(std::uint32_t round, VertexId v,
                       VertexId parent) override {
    for (EventHooks* s : sinks_) s->on_edge_persist(round, v, parent);
  }
  void on_vertex_persist(std::uint32_t round, VertexId v) override {
    for (EventHooks* s : sinks_) s->on_vertex_persist(round, v);
  }

 private:
  std::vector<EventHooks*> sinks_;
};

/// Records every vertex that fired a death event (finalize, rake,
/// compress) during a construction or dynamic update. After an update
/// this, plus the batch's V- (which fires no event), is a superset of
/// DynamicUpdater::touched(), the refresh set the serving layer uses: it
/// also lists the unaffected neighbours whose re-executed events did not
/// change, about 1.5x as many vertices, through a mutex per event. Kept
/// for the benchmark replica in perfbench/ and for tests.
class TouchedRecorder final : public EventHooks {
 public:
  void on_finalize(std::uint32_t, VertexId v) override { note(v); }
  void on_rake(std::uint32_t, VertexId v, VertexId) override { note(v); }
  void on_compress(std::uint32_t, VertexId v, VertexId,
                   VertexId) override {
    note(v);
  }

  // Quiescent accessors: called after the construction/update (and its
  // joins) completes, when no hook can fire concurrently — lock-free by
  // contract, so the analysis is deliberately waived here rather than
  // pretending a lock is needed.
  const std::vector<VertexId>& vertices() const
      PARCT_NO_THREAD_SAFETY_ANALYSIS {
    return vs_;
  }
  std::vector<VertexId>& vertices() PARCT_NO_THREAD_SAFETY_ANALYSIS {
    return vs_;
  }
  void clear() PARCT_NO_THREAD_SAFETY_ANALYSIS { vs_.clear(); }

 private:
  // Events fire from parallel regions (distinct vertices concurrently);
  // the touched set is small — the affected region — so a mutex push is
  // cheap relative to the re-execution work that triggered it.
  void note(VertexId v) PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    vs_.push_back(v);
  }

  Mutex mu_;
  std::vector<VertexId> vs_ PARCT_GUARDED_BY(mu_);
};

}  // namespace parct::contract
