// Parallel compaction ("pack"): keep the elements satisfying a predicate,
// preserving order. This is the C(n) subroutine of the paper's analysis;
// ours is the work-efficient prefix-sums version: O(n) work, O(log n) span.
//
// pack_into is destination-passing and runs a FUSED scan+pack: one sweep
// counts the predicate hits per block, a serial scan over the per-block
// counts (leased from the Workspace — num_blocks entries, not n) places
// each block, and a second sweep writes each block's survivors at its
// offset. Compared to the classic flags/offsets formulation this never
// materializes an n-sized offsets vector and performs zero heap
// allocations in steady state (the destination reuses its capacity; growth
// is tracked in the workspace stats). The predicate is evaluated at most
// twice per index and must be pure.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/annotations.hpp"
#include "parallel/parallel_for.hpp"
#include "primitives/workspace.hpp"

namespace parct::prim {

/// True iff a count fits the 32-bit offsets pack places its blocks with:
/// a larger total would silently wrap. pack_into debug-asserts it on n and
/// on the kept total, which it sums in 64 bits before the narrowing cast;
/// see the 2^32-boundary unit test in scan_pack_test.cpp.
constexpr bool offsets_fit_uint32(std::uint64_t total) {
  return total <= 0xFFFFFFFFull;
}

/// Elements `in[i]` whose index satisfies `pred`, in order, written into
/// `out` (resized; steady-state calls are allocation-free). Returns the
/// number kept. `out` must not alias `in`.
template <typename T, typename Pred>
std::size_t pack_into(const std::vector<T>& in, const Pred& pred,
                      std::vector<T>& out, Workspace& ws) {
  const std::size_t n = in.size();
  assert(offsets_fit_uint32(n) && "pack_into: n exceeds 32-bit offsets");
  if (n == 0) {
    out.clear();
    return 0;
  }
  if (par::sequential_mode()) {
    const std::size_t cap = out.capacity();
    out.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (pred(i)) out.push_back(in[i]);
    }
    if (out.capacity() != cap) {
      ws.note_container_growth((out.capacity() - cap) * sizeof(T));
    }
    return out.size();
  }
  PARCT_SHADOW_BUFFER(shadow_out);
  const std::size_t kBlock = 4096;
  const std::size_t num_blocks = (n + kBlock - 1) / kBlock;
  auto offsets = ws.acquire<std::uint32_t>(num_blocks);
  const std::uint64_t shadow_offsets = offsets.shadow_nonce();
  (void)shadow_offsets;
  // Sweep 1: per-block predicate counts.
  par::parallel_for(0, num_blocks, [&](std::size_t b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(lo + kBlock, n);
    std::uint32_t count = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (pred(i)) ++count;
    }
    PARCT_SHADOW_WRITE(analysis::buffer_cell(shadow_offsets, b));
    offsets[b] = count;
  }, 1);
  // Serial exclusive scan of the block counts (num_blocks ≤ n/4096 + 1).
  // The total is accumulated wide and checked against the 32-bit offset
  // width before the narrowing cast (see offsets_fit_uint32).
  std::uint64_t total64 = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::uint32_t v = offsets[b];
    offsets[b] = static_cast<std::uint32_t>(total64);
    total64 += v;
  }
  assert(offsets_fit_uint32(total64) && "pack: 32-bit offset overflow");
  const std::size_t total = static_cast<std::size_t>(total64);
  ws.resize_tracked(out, total);
  // Sweep 2: each block writes its survivors at its offset. Blocks own
  // disjoint destination ranges [offsets[b], offsets[b] + count_b), which
  // the shadow writes below prove (an overlap would be a write-write race).
  par::parallel_for(0, num_blocks, [&](std::size_t b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(lo + kBlock, n);
    PARCT_SHADOW_READ(analysis::buffer_cell(shadow_offsets, b));
    std::uint32_t slot = offsets[b];
    for (std::size_t i = lo; i < hi; ++i) {
      if (pred(i)) {
        PARCT_SHADOW_WRITE(analysis::buffer_cell(shadow_out, slot));
        out[slot++] = in[i];
      }
    }
  }, 1);
  return total;
}

}  // namespace parct::prim
