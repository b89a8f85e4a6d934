#include "durability/manager.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "contraction/dynamic_update.hpp"

namespace parct::durability {

namespace fs = std::filesystem;

Manager::Manager(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("parct::durability: cannot create directory '" +
                             dir_ + "': " + ec.message());
  }
}

void Manager::open_log(std::uint64_t version) {
  // An empty open segment based at `version` is what a new one would be
  // (a server set up right after checkpoint(version) asks for it again).
  if (writer_ && writer_->base_version() == version &&
      writer_->records() == 0) {
    return;
  }
  // Once its rename lands, a segment based at `version` fences the open
  // one there. A failure before the rename leaves only a .tmp, and the
  // open segment keeps taking records; a failure after it closes the log,
  // so later appends throw rather than log records recovery would drop.
  bool renamed = false;
  try {
    writer_ = std::make_unique<WalWriter>(dir_, version, &renamed);
  } catch (...) {
    if (renamed) writer_.reset();
    throw;
  }
}

void Manager::append(
    std::uint64_t version, const forest::ChangeSet& batch,
    const std::vector<std::pair<VertexId, Weight>>& vertex_weights) {
  if (!writer_) {
    throw std::runtime_error(
        "parct::durability: append without an open WAL segment");
  }
  writer_->append(version, batch, vertex_weights);
  wal_records_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_.store(writer_->bytes(), std::memory_order_relaxed);
}

void Manager::checkpoint(const contract::ContractionForest& c,
                         const std::vector<Weight>& weights,
                         std::uint64_t version) {
  write_checkpoint(dir_, version, c, weights);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  // Rotate only after the checkpoint committed: an exception above leaves
  // the current segment (which the previous checkpoint still needs) open.
  open_log(version);
  prune();
}

void Manager::prune() {
  std::vector<std::pair<std::uint64_t, fs::path>> ckpts;
  std::vector<std::pair<std::uint64_t, fs::path>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto v = checkpoint_version_of(name)) {
      ckpts.emplace_back(*v, entry.path());
    } else if (const auto b = wal_base_of(name)) {
      segments.emplace_back(*b, entry.path());
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A checkpoint or segment that failed before its rename;
      // best-effort.
      fs::remove(entry.path(), ec);
    }
  }
  if (ckpts.size() <= kKeepCheckpoints) {
    // Nothing superseded yet; leave every segment in place.
    return;
  }
  std::sort(ckpts.begin(), ckpts.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const std::uint64_t oldest_kept = ckpts[kKeepCheckpoints - 1].first;
  for (std::size_t i = kKeepCheckpoints; i < ckpts.size(); ++i) {
    fs::remove(ckpts[i].second, ec);
  }
  // The oldest kept checkpoint (version V) replays records > V, which
  // live in the segment with the largest base <= V and everything after
  // it; segments entirely before that are superseded.
  std::uint64_t needed_base = 0;
  for (const auto& [base, path] : segments) {
    if (base <= oldest_kept) needed_base = std::max(needed_base, base);
  }
  for (const auto& [base, path] : segments) {
    if (base < needed_base) fs::remove(path, ec);
  }
}

RecoveredState Manager::recover(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> ckpts;
  std::vector<std::pair<std::uint64_t, fs::path>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto v = checkpoint_version_of(name)) {
      ckpts.emplace_back(*v, entry.path());
    } else if (const auto b = wal_base_of(name)) {
      segments.emplace_back(*b, entry.path());
    }
    // Anything else (.tmp leftovers, foreign files) is ignored.
  }
  if (ec) {
    throw std::runtime_error("parct::durability: cannot scan directory '" +
                             dir + "': " + ec.message());
  }

  // Newest checkpoint that fully validates wins; corrupt ones are skipped.
  std::sort(ckpts.begin(), ckpts.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::unique_ptr<contract::ContractionForest> forest;
  std::vector<Weight> weights;
  std::uint64_t version = 0;
  for (const auto& [v, path] : ckpts) {
    try {
      Checkpoint ckpt = read_checkpoint(path.string());
      forest = std::make_unique<contract::ContractionForest>(
          std::move(ckpt.forest));
      weights = std::move(ckpt.weights);
      version = ckpt.version;
      break;
    } catch (const std::runtime_error&) {
      continue;  // corrupt/truncated: fall back to the next-newest
    }
  }
  if (!forest) {
    throw std::runtime_error(
        "parct::durability: no valid checkpoint in directory '" + dir + "'");
  }

  // Replay the WAL tail: segments in base order, versions contiguous from
  // the checkpoint forward. A later segment's base fences earlier
  // segments — records beyond it were never acknowledged (the incarnation
  // that opened the later segment recovered to exactly its base).
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  contract::DynamicUpdater updater(*forest);
  std::uint64_t replayed = 0;
  std::uint64_t expected = version + 1;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::uint64_t fence = i + 1 < segments.size()
                                    ? segments[i + 1].first
                                    : std::uint64_t(-1);
    SegmentContents seg;
    try {
      seg = read_wal_segment(segments[i].second.string());
    } catch (const std::runtime_error&) {
      break;  // unreadable segment: stop at the durable prefix
    }
    bool gap = false;
    for (WalRecord& rec : seg.records) {
      if (rec.version < expected) continue;  // already in the checkpoint
      if (rec.version > fence || rec.version != expected) {
        gap = true;  // fenced or non-contiguous: end of the durable chain
        break;
      }
      updater.apply(rec.batch);
      if (weights.size() < forest->capacity()) {
        weights.resize(forest->capacity());
      }
      for (const auto& [v, w] : rec.vertex_weights) {
        // Mirror the serving path: weight assignments only land on
        // vertices the batch left present.
        if (v < forest->capacity() && forest->duration(v) > 0) {
          weights[v] = w;
        }
      }
      ++replayed;
      ++expected;
    }
    if (gap) break;
  }
  weights.resize(forest->capacity());

  RecoveredState out;
  out.forest = std::move(forest);
  out.weights = std::move(weights);
  out.version = expected - 1;
  out.replayed = replayed;
  return out;
}

}  // namespace parct::durability
