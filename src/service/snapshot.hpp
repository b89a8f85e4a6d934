// Epoch-pinned snapshots of the query-relevant derived state.
//
// A Snapshot is an *immutable* copy of everything the read side needs —
// the RC event table (representative links for root/connectivity) and the
// tree-aggregate tables — stamped with a version number. Queries fan out
// over a snapshot with plain parallel_for and never look at the live
// ContractionForest, so a DynamicUpdater::apply mutating the live
// structure on another thread can never expose a half-propagated round to
// readers: snapshot isolation by construction, not by locking.
//
// SnapshotStore is the RCU-style publication point: writers build the
// successor version into a recycled buffer (double-buffering — a retired
// buffer is reused once the last reader handle drops it, so the steady
// state allocates nothing beyond the two O(n) buffers) and publish it
// atomically; readers acquire() a SnapshotHandle that pins one version
// for as long as they hold it.
//
// Publishing costs time proportional to the change, not to n. In steady
// state the recycled buffer holds version v-1 while v+1 is built, so
// publish_changes() copies only the entries at the ids versions v and v+1
// changed (docs/PERFORMANCE.md "Snapshot publish"). It falls back to the
// full O(n) assign_from when the buffer is not exactly two versions old
// (the first two versions, or a reader still pinning the buffer), when a
// table changed size, or when the two id lists are large against n.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "forest/types.hpp"
#include "parallel/capability.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"

namespace parct::service {

/// Weight type served by the snapshot/serving layer (the core
/// TreeAggregate stays generic; the service fixes one concrete group).
using Weight = long;

struct Snapshot {
  /// Monotonic structure version: 0 for the initial construction, +1 per
  /// applied update batch.
  std::uint64_t version = 0;

  /// Copy of RCForest::events() at this version.
  std::vector<rc::Event> events;
  /// Copies of TreeAggregate weights()/accumulators() at this version
  /// (empty when the server runs without weights).
  std::vector<Weight> weights;
  std::vector<Weight> accumulators;

  // --- the batch-query View concept (rc/batch_queries.hpp) -------------
  // All entry points are total: an out-of-range or absent id yields the
  // defined sentinel instead of UB, so snapshots can serve untrusted ids.

  std::size_t size() const { return events.size(); }

  bool present(VertexId v) const {
    return v < events.size() &&
           events[v].kind != rc::EventKind::kAbsent;
  }

  /// Root of v's tree at this version; kNoVertex for invalid ids.
  /// O(log n) expected (climbs the representative chain).
  VertexId root(VertexId v) const {
    if (!present(v)) return kNoVertex;
    while (events[v].into != kNoVertex) v = events[v].into;
    return v;
  }

  bool connected(VertexId u, VertexId v) const {
    if (!present(u) || !present(v)) return false;
    return root(u) == root(v);
  }

  /// Total weight of v's tree at this version; Weight{} for invalid ids
  /// or when the snapshot carries no weights.
  Weight tree_weight(VertexId v) const {
    const VertexId r = root(v);
    return r != kNoVertex && r < accumulators.size() ? accumulators[r]
                                                     : Weight{};
  }

  /// Fills this buffer from the live derived state: O(n) vector copies
  /// (memcpy-speed; capacity is reused on recycled buffers). The full-copy
  /// path of SnapshotStore::publish_changes and the only path of a plain
  /// begin_build/publish. The version is stamped last, so a copy that
  /// throws part-way leaves the stamp the caller set before it.
  void assign_from(const rc::RCForest& rcf,
                   const rc::TreeAggregate<Weight>* agg,
                   std::uint64_t new_version) {
    events = rcf.events();
    if (agg != nullptr) {
      weights = agg->weights();
      accumulators = agg->accumulators();
    } else {
      weights.clear();
      accumulators.clear();
    }
    version = new_version;
  }
};

/// A pinned, read-only view of one published version. Copyable; the
/// snapshot stays alive (and its buffer out of the recycle pool) until
/// the last handle drops.
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  explicit SnapshotHandle(std::shared_ptr<const Snapshot> s)
      : s_(std::move(s)) {}

  explicit operator bool() const { return s_ != nullptr; }
  const Snapshot& operator*() const { return *s_; }
  const Snapshot* operator->() const { return s_.get(); }
  const Snapshot* get() const { return s_.get(); }
  std::uint64_t version() const { return s_ ? s_->version : 0; }

 private:
  std::shared_ptr<const Snapshot> s_;
};

class SnapshotStore {
 public:
  /// Current front version pin. Never blocks publication; the handle keeps
  /// observing its version while successors are published.
  SnapshotHandle acquire() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return SnapshotHandle(front_);
  }

  std::uint64_t version() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return front_ ? front_->version : 0;
  }

  /// A mutable buffer to build the next version into: a retired
  /// double-buffer slot if no reader still pins it, else a fresh
  /// allocation (counted, so tests/benches can assert steady-state reuse).
  std::shared_ptr<Snapshot> begin_build() PARCT_EXCLUDES(mu_) {
    bool recycled = false;
    return take_buffer(recycled);
  }

  /// Publishes `next` as the front version. Readers that already hold a
  /// handle keep their pinned version; new acquires see `next`. The store
  /// does not know what changed in `next`, so the publish after it copies
  /// every table.
  void publish(std::shared_ptr<Snapshot> next) PARCT_EXCLUDES(mu_) {
    changed_version_ = kUnbuilt;
    MutexLock lk(mu_);
    publish_locked(std::move(next));
  }

  /// Builds `version` of the live derived state into a recycled buffer and
  /// publishes it. `changed` lists every id whose event, weight or
  /// accumulator differs from version - 1 (duplicates are fine). When the
  /// recycled buffer holds version - 2 and the previous publish also came
  /// through here, only the entries at `changed` and the previous call's
  /// ids are copied; otherwise the whole state is (assign_from). Called
  /// by one builder thread at a time.
  void publish_changes(const rc::RCForest& rcf,
                       const rc::TreeAggregate<Weight>* agg,
                       std::uint64_t version,
                       const std::vector<VertexId>& changed)
      PARCT_EXCLUDES(mu_) {
    bool recycled = false;
    std::shared_ptr<Snapshot> buf = take_buffer(recycled);
    const bool patch = recycled && version >= 2 &&
                       buf->version == version - 2 &&
                       changed_version_ == version - 1 &&
                       same_shape(*buf, rcf, agg) &&
                       kPatchRatio * (prev_changed_.size() + changed.size()) <=
                           rcf.size();
    if (patch) {
      copy_entries(*buf, rcf, agg, prev_changed_);
      copy_entries(*buf, rcf, agg, changed);
      buf->version = version;
    } else {
      // A copy that throws part-way must not leave a stamp that a later
      // patch would trust.
      buf->version = kUnbuilt;
      buf->assign_from(rcf, agg, version);
    }
    prev_changed_.assign(changed.begin(), changed.end());
    changed_version_ = version;
    MutexLock lk(mu_);
    publish_locked(std::move(buf));
    if (patch) ++patches_;
  }

  std::uint64_t published() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return published_;
  }
  std::uint64_t buffers_reused() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return buffers_reused_;
  }
  std::uint64_t buffers_allocated() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return buffers_allocated_;
  }
  /// Publishes that copied only the changed entries.
  std::uint64_t patches() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return patches_;
  }

 private:
  // Patch only while the two id lists hold at most n / kPatchRatio ids.
  // At n = 10^6 a listed entry costs ~40 ns to copy (three scattered
  // loads and stores) against ~4.6 ns per vertex for the sequential copy
  // of every table, so patching loses past about n / 8.7 ids — bulk
  // 10^4-edge batches list ~n / 4.5 (docs/PERFORMANCE.md "Snapshot
  // publish").
  static constexpr std::size_t kPatchRatio = 8;
  static constexpr std::uint64_t kUnbuilt =
      std::numeric_limits<std::uint64_t>::max();

  std::shared_ptr<Snapshot> take_buffer(bool& recycled) PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    for (auto& slot : ring_) {
      // use_count == 1: only the ring references it — no front_ alias, no
      // reader handles. Safe to mutate in place.
      if (slot && slot != building_ && slot.use_count() == 1) {
        ++buffers_reused_;
        building_ = slot;
        recycled = true;
        return slot;
      }
    }
    ++buffers_allocated_;
    auto fresh = std::make_shared<Snapshot>();
    for (auto& slot : ring_) {
      if (slot == nullptr || (slot != building_ && slot.use_count() == 1)) {
        slot = fresh;
        break;
      }
    }
    building_ = fresh;
    recycled = false;
    return fresh;
  }

  void publish_locked(std::shared_ptr<Snapshot> next) PARCT_REQUIRES(mu_) {
    if (building_ == next) building_ = nullptr;
    front_ = std::shared_ptr<const Snapshot>(std::move(next));
    ++published_;
  }

  static bool same_shape(const Snapshot& s, const rc::RCForest& rcf,
                         const rc::TreeAggregate<Weight>* agg) {
    const std::size_t w = agg != nullptr ? agg->weights().size() : 0;
    const std::size_t a = agg != nullptr ? agg->accumulators().size() : 0;
    return s.events.size() == rcf.size() && s.weights.size() == w &&
           s.accumulators.size() == a;
  }

  static void copy_entries(Snapshot& s, const rc::RCForest& rcf,
                           const rc::TreeAggregate<Weight>* agg,
                           const std::vector<VertexId>& ids) {
    const std::vector<rc::Event>& events = rcf.events();
    for (VertexId v : ids) {
      assert(v < events.size() && "changed id outside the live tables");
      s.events[v] = events[v];
    }
    if (agg == nullptr) return;
    const std::vector<Weight>& weights = agg->weights();
    const std::vector<Weight>& accs = agg->accumulators();
    for (VertexId v : ids) {
      s.weights[v] = weights[v];
      s.accumulators[v] = accs[v];
    }
  }

  mutable Mutex mu_;
  // The *pointers* below are guarded; the pointees deliberately are not:
  // front_'s Snapshot is immutable once published, and building_'s is
  // mutated lock-free by the single builder thread that begin_build()
  // handed it to (the free-list scan above proves no reader aliases it).
  std::shared_ptr<const Snapshot> front_ PARCT_GUARDED_BY(mu_);
  // Double buffer: publish() aliases one slot as front_; the other slot
  // becomes recyclable as soon as the previous front's readers drain.
  std::shared_ptr<Snapshot> ring_[2] PARCT_GUARDED_BY(mu_);
  // Handed out, not yet published.
  std::shared_ptr<Snapshot> building_ PARCT_GUARDED_BY(mu_);
  std::uint64_t published_ PARCT_GUARDED_BY(mu_) = 0;
  std::uint64_t buffers_reused_ PARCT_GUARDED_BY(mu_) = 0;
  std::uint64_t buffers_allocated_ PARCT_GUARDED_BY(mu_) = 0;
  std::uint64_t patches_ PARCT_GUARDED_BY(mu_) = 0;
  // Builder thread only, like the building_ buffer's contents: the ids
  // the last publish_changes() was handed, and the version they produced
  // (kUnbuilt after a plain publish(), whose changes are unknown).
  std::vector<VertexId> prev_changed_;
  std::uint64_t changed_version_ = kUnbuilt;
};

}  // namespace parct::service
