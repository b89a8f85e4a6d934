// Durability manager: owns one durability directory — the newest
// checkpoints plus the WAL segment currently being appended — and the
// recovery procedure that turns that directory back into serving state.
//
// Single-writer: append/checkpoint/open_log are called from the server's
// engine (or step()) thread only. The counters are atomics because
// BatchServer::stats() reads them from arbitrary threads.
//
// Recovery invariants (docs/DURABILITY.md):
//   - the newest checkpoint that parses and CRC-checks wins; corrupt or
//     half-written (.tmp) files are skipped, never fatal;
//   - WAL segments replay in base-version order, and replay demands
//     contiguous versions from the checkpoint forward — a torn tail or a
//     gap ends replay at the last durable prefix;
//   - a later segment's base version fences earlier segments: records
//     beyond it were never acknowledged by the incarnation that wrote the
//     later segment, so they are discarded.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/wal.hpp"

namespace parct::durability {

/// What recover() hands back: the replayed structure, its weight table,
/// the version it represents, and how many WAL records were replayed on
/// top of the checkpoint.
struct RecoveredState {
  std::unique_ptr<contract::ContractionForest> forest;
  std::vector<Weight> weights;
  std::uint64_t version = 0;
  std::uint64_t replayed = 0;
};

class Manager {
 public:
  /// Binds to `dir`, creating the directory if it does not exist.
  explicit Manager(std::string dir);

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  const std::string& dir() const { return dir_; }

  /// Opens a fresh WAL segment based at `version`, superseding any open
  /// one (an open segment based at `version` that holds no record is
  /// kept as it is); the segment is committed by rename. Replacing an
  /// existing same-named segment is safe: recovery only resumes at a
  /// version past every acknowledged record, so a same-based leftover
  /// holds only records recovery already discarded. On a failure before
  /// the rename the open segment stays in use; after it, no segment is
  /// open and append throws, because the new segment may already fence
  /// the old.
  void open_log(std::uint64_t version);

  /// Appends one admitted update (producing `version`) and syncs it.
  /// Requires an open segment. Throws on failure — the caller must then
  /// treat in-memory state as ahead of durable state (fail-stop for
  /// updates).
  void append(std::uint64_t version, const forest::ChangeSet& batch,
              const std::vector<std::pair<VertexId, Weight>>& vertex_weights);

  /// Writes a checkpoint at `version`, rotates the WAL onto a segment
  /// based at `version`, and prunes files superseded by the kept
  /// checkpoints. Throws on failure with the previous checkpoint intact —
  /// the rename is the commit point. The current WAL segment stays open
  /// unless the rotation failed after the new segment's rename
  /// (open_log).
  void checkpoint(const contract::ContractionForest& c,
                  const std::vector<Weight>& weights, std::uint64_t version);

  /// Loads the newest valid checkpoint in `dir` and replays the WAL tail
  /// through contract::DynamicUpdater. Throws std::runtime_error if no
  /// valid checkpoint exists.
  static RecoveredState recover(const std::string& dir);

  std::uint64_t wal_records() const {
    return wal_records_.load(std::memory_order_relaxed);
  }
  std::uint64_t wal_bytes() const {
    return wal_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t checkpoints_written() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// Checkpoints retained by pruning (plus every WAL segment the oldest
  /// kept checkpoint may still need).
  static constexpr std::size_t kKeepCheckpoints = 2;

 private:
  void prune();

  std::string dir_;
  std::unique_ptr<WalWriter> writer_;  // engine/step thread only
  std::atomic<std::uint64_t> wal_records_{0};
  std::atomic<std::uint64_t> wal_bytes_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
};

}  // namespace parct::durability
