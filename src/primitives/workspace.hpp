// Workspace: a size-classed scratch arena for the hot round pipelines.
//
// The paper's update bound O(m log((n+m)/m)) is dominated in practice by
// the compaction subroutine C(n) and per-round bookkeeping; re-allocating
// scratch on every call buries the algorithmic win under allocator traffic.
// A Workspace owns a pool of raw blocks grouped into power-of-two size
// classes. acquire<T>(n) leases a block (reusing a cached one when the
// class has a free block — a *hit* — and allocating otherwise — a *miss*);
// the lease returns its block to the pool on destruction, so in steady
// state every acquire is a hit and the round pipelines run allocation-free.
//
// Ownership and epoch rules (see docs/PERFORMANCE.md):
//   * A Workspace is single-owner scratch: exactly one logical thread
//     acquires from it at a time. Parallel phases lease *before* forking
//     and only read/write the leased memory inside the region.
//   * Leases must not outlive their Workspace.
//   * epoch_reset() marks a round boundary: it asserts that no lease is
//     outstanding and bumps the epoch counter. Capacity is retained.
//   * Every acquire mints a fresh shadow-buffer nonce (when the SP-bags
//     detector is active), so a recycled block never aliases the logical
//     cells of its previous lease — reuse is not misreported as a race.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "analysis/sp_bags.hpp"
#include "fault/fault_injection.hpp"

namespace parct {

/// Allocation counters of one Workspace. Plain (non-atomic) fields: a
/// Workspace is single-owner, and the counters are bumped only on the
/// acquire/release paths — a handful of increments per phase, never per
/// element — so they stay on unconditionally (like the scheduler counters;
/// see docs/OBSERVABILITY.md "Memory discipline").
struct WorkspaceStats {
  std::uint64_t acquires = 0;   ///< acquire() calls
  std::uint64_t hits = 0;       ///< served from a cached block
  std::uint64_t misses = 0;     ///< had to heap-allocate a block
  std::uint64_t bytes_allocated = 0;  ///< cumulative fresh-block bytes
  std::uint64_t bytes_held = 0;       ///< current arena footprint
  std::uint64_t epochs = 0;           ///< epoch_reset() calls
  /// Capacity growths of caller-owned destination vectors, as recorded by
  /// the *_into primitives via note_container_growth(): count and bytes.
  std::uint64_t container_growths = 0;
  std::uint64_t container_bytes = 0;
};

class Workspace {
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t bytes = 0;
  };

 public:
  /// A leased block viewed as `T[size]`, returned to the pool when the
  /// lease is destroyed. Contents are uninitialized. Move-only.
  template <typename T>
  class Lease {
   public:
    Lease(Lease&& o) noexcept
        : ws_(o.ws_), block_(std::move(o.block_)), size_(o.size_),
          nonce_(o.nonce_) {
      o.ws_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (ws_ != nullptr) ws_->release(std::move(block_));
    }

    T* data() { return reinterpret_cast<T*>(block_.data.get()); }
    const T* data() const {
      return reinterpret_cast<const T*>(block_.data.get());
    }
    std::size_t size() const { return size_; }
    T& operator[](std::size_t i) { return data()[i]; }

    /// Shadow-buffer nonce of this lease (fresh per acquire; 0 when the
    /// race detector is inactive). Use with analysis::buffer_cell.
    std::uint64_t shadow_nonce() const { return nonce_; }

   private:
    friend class Workspace;
    Lease(Workspace* ws, Block block, std::size_t size, std::uint64_t nonce)
        : ws_(ws), block_(std::move(block)), size_(size), nonce_(nonce) {}

    Workspace* ws_;
    Block block_;
    std::size_t size_;
    std::uint64_t nonce_;
  };

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Leases a block holding at least `n` objects of trivially-destructible
  /// type T. O(1) amortized; allocation only on a size-class miss.
  template <typename T>
  Lease<T> acquire(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Workspace blocks are raw storage");
    // Fault site: a lease request behaves like an allocator under memory
    // pressure. Thrown before any counter or pool state moves, so a caller
    // that catches and retries sees a consistent arena.
    if (PARCT_FAULT_POINT(fault::Site::kWorkspaceAcquire)) {
      throw std::bad_alloc{};
    }
    const std::size_t bytes = size_class_bytes(n * sizeof(T));
    const unsigned cls = size_class(bytes);
    ++stats_.acquires;
    ++outstanding_;
    Block b;
    if (!free_[cls].empty()) {
      ++stats_.hits;
      // resize, not pop_back: GCC 12's -Warray-bounds misreads the
      // inlined pop_back of a list it last saw empty as index -1.
      std::vector<Block>& cache = free_[cls];
      b = std::move(cache.back());
      cache.resize(cache.size() - 1);
    } else {
      ++stats_.misses;
      stats_.bytes_allocated += bytes;
      stats_.bytes_held += bytes;
      b.data = std::make_unique<std::byte[]>(bytes);
      b.bytes = bytes;
    }
    return Lease<T>(this, std::move(b), n, analysis::spbags::active()
                                               ? analysis::spbags::new_buffer_id()
                                               : 0);
  }

  /// Resizes a caller-owned destination vector, recording any capacity
  /// growth in the stats. This is how the *_into primitives size their
  /// outputs: in steady state the capacity is already there and the call
  /// is a plain (allocation-free) resize.
  template <typename T>
  void resize_tracked(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) {
      note_container_growth((n - v.capacity()) * sizeof(T));
    }
    v.resize(n);
  }

  /// Records a destination-buffer capacity growth of `bytes` (used by the
  /// sequential fallbacks of the *_into primitives, where growth happens
  /// inside push_back).
  void note_container_growth(std::size_t bytes) {
    ++stats_.container_growths;
    stats_.container_bytes += bytes;
  }

  /// Round boundary: no leases may be outstanding. Capacity is retained;
  /// only the epoch counter moves (shadow nonces are already fresh per
  /// acquire).
  void epoch_reset() {
    assert(outstanding_ == 0 && "Workspace::epoch_reset with live leases");
    ++stats_.epochs;
  }

  /// Releases every cached block back to the heap (leases stay valid).
  void trim() {
    for (auto& cls : free_) {
      for (Block& b : cls) stats_.bytes_held -= b.bytes;
      cls.clear();
    }
  }

  const WorkspaceStats& stats() const { return stats_; }
  std::size_t outstanding() const { return outstanding_; }

 private:
  // (Lease is a nested class, so it reaches release() without a friend
  // declaration.)
  void release(Block b) {
    assert(outstanding_ > 0);
    --outstanding_;
    free_[size_class(b.bytes)].push_back(std::move(b));
  }

  // Size classes are powers of two from 64 B up; class index = bit width
  // of (bytes - 1), so every block in free_[c] holds exactly 1 << c bytes.
  static std::size_t size_class_bytes(std::size_t bytes) {
    std::size_t b = 64;
    while (b < bytes) b <<= 1;
    return b;
  }
  static unsigned size_class(std::size_t bytes) {
    unsigned c = 0;
    while ((std::size_t{1} << c) < bytes) ++c;
    return c;
  }

  static constexpr unsigned kNumClasses = 48;
  std::vector<Block> free_[kNumClasses];
  std::size_t outstanding_ = 0;
  WorkspaceStats stats_;
};

/// Delta of two WorkspaceStats snapshots (end - begin), for per-call
/// attribution in UpdateStats / ConstructStats.
inline WorkspaceStats workspace_stats_delta(const WorkspaceStats& begin,
                                            const WorkspaceStats& end) {
  WorkspaceStats d;
  d.acquires = end.acquires - begin.acquires;
  d.hits = end.hits - begin.hits;
  d.misses = end.misses - begin.misses;
  d.bytes_allocated = end.bytes_allocated - begin.bytes_allocated;
  d.bytes_held = end.bytes_held;  // a level, not a rate
  d.epochs = end.epochs - begin.epochs;
  d.container_growths = end.container_growths - begin.container_growths;
  d.container_bytes = end.container_bytes - begin.container_bytes;
  return d;
}

}  // namespace parct
