// Write-ahead log for the BatchServer's admitted updates. One *segment*
// file (`wal-<base>.log`) holds the updates applied after service version
// <base>: the k-th record in the segment carries version base+k. Each
// record is length-prefixed and CRC32-trailed, and every append is
// synced before the producing epoch publishes — an acknowledged update
// is durable. A segment is created zero-filled one chunk ahead, so most
// appends overwrite blocks already in the file and need only fdatasync.
// A torn final record (crash mid-append) is detected at recovery and
// dropped, never fatal. Formats in docs/DURABILITY.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "durability/posix_io.hpp"
#include "forest/change_set.hpp"
#include "forest/types.hpp"

namespace parct::durability {

/// Weight type persisted in WAL records and checkpoints. Must match
/// service::Weight (static_asserted in batch_server.cpp).
using Weight = long;

inline constexpr std::uint64_t kWalMagic = 0x50415243'5457414Cull;  // PARCTWAL
inline constexpr std::uint32_t kWalFormatVersion = 1;

/// One logged update: the version it produced, the change set, and the
/// post-repair vertex weight assignments — exactly the inputs
/// DynamicUpdater::apply and TreeAggregate::set_weight need at replay.
struct WalRecord {
  std::uint64_t version = 0;
  forest::ChangeSet batch;
  std::vector<std::pair<VertexId, Weight>> vertex_weights;
};

/// Zeros a segment is created with, after its header, and extended by.
/// An append that fits inside them overwrites blocks an fsync already
/// made part of the file, so fdatasync makes it durable without a
/// metadata commit.
inline constexpr std::size_t kWalChunkBytes = 256 * 1024;

/// Appender over one WAL segment. Created fresh — segments are never
/// re-opened for append; a recovered server starts a new segment based
/// at its recovered version.
class WalWriter {
 public:
  /// Creates `dir/wal-<base>.log` the way a checkpoint is committed:
  /// writes the header and one zeroed chunk to `wal-<base>.log.tmp`,
  /// fsyncs it, renames it into place and fsyncs the directory. If
  /// `renamed` is given it is set once the rename has landed, so a caller
  /// that catches a failure can tell whether the new segment may be
  /// visible to recovery (and so fence the previous one).
  WalWriter(const std::string& dir, std::uint64_t base_version,
            bool* renamed = nullptr);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends the record for `version` at the logical end and syncs it:
  /// fdatasync when the frame lies inside the zero-filled region, else
  /// the file first grows by zeroed chunks and the frame is fsynced.
  /// Encodes into a buffer that keeps its capacity, so a steady stream of
  /// records allocates nothing. Throws (std::runtime_error or
  /// fault::InjectedFault) on failure — the segment tail may then be torn,
  /// which recovery detects and drops.
  void append(std::uint64_t version, const forest::ChangeSet& batch,
              const std::vector<std::pair<VertexId, Weight>>& vertex_weights);

  std::uint64_t base_version() const { return base_; }
  std::uint64_t records() const { return records_; }
  /// Logical length: the header plus every appended frame, not the
  /// zero-filled file length.
  std::uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  detail::Fd fd_;
  std::string frame_;  // encode buffer, reused across appends
  std::uint64_t base_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t allocated_ = 0;  // file length, zero-filled past bytes_
};

/// What a segment scan yields: the longest intact record prefix. `clean`
/// is false when a torn or CRC-corrupt tail was dropped (including a
/// torn segment header, which yields zero records). The records end at a
/// zero length field or at the end of the file; only zeros may follow.
struct SegmentContents {
  std::uint64_t base_version = 0;
  std::vector<WalRecord> records;
  bool clean = true;
};

/// Reads one segment file into one buffer and decodes its payloads in
/// place. Corruption never throws past the first bad byte — the scan
/// stops and returns the intact prefix. Throws only if the file cannot be
/// read at all.
SegmentContents read_wal_segment(const std::string& path);

/// `wal-<base>.log` naming: base version of a segment file name, or
/// nullopt if `filename` is not a WAL segment name (a `.tmp` is not).
std::optional<std::uint64_t> wal_base_of(const std::string& filename);
std::string wal_filename(std::uint64_t base_version);

}  // namespace parct::durability
