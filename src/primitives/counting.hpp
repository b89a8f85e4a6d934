// Parallel stable counting sort for small integer keys (e.g. bucketing
// vertices by death round: K = O(log n) buckets). Blocked two-pass
// structure: per-block local histograms, a column-major scan over the
// block histograms, then a per-block scatter. O(n + K * n/B) work,
// O(log n + K) span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/annotations.hpp"
#include "parallel/parallel_for.hpp"

namespace parct::prim {

/// Indices 0..n-1 stably ordered by key(i) (all key-0 indices first, in
/// increasing order, then key-1, ...). `key(i)` must be < K.
template <typename KeyFn>
std::vector<std::uint32_t> counting_sort_indices(std::size_t n,
                                                 const KeyFn& key,
                                                 std::size_t num_keys) {
  std::vector<std::uint32_t> out(n);
  if (n == 0) return out;
  const std::size_t kBlock = 8192;
  if (!par::race_detect_forced() &&
      (n <= kBlock || par::scheduler::num_workers() == 1)) {
    std::vector<std::uint32_t> cursor(num_keys + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++cursor[key(i) + 1];
    for (std::size_t k = 1; k <= num_keys; ++k) cursor[k] += cursor[k - 1];
    for (std::size_t i = 0; i < n; ++i) {
      out[cursor[key(i)]++] = static_cast<std::uint32_t>(i);
    }
    return out;
  }
  PARCT_SHADOW_BUFFER(shadow_local);
  PARCT_SHADOW_BUFFER(shadow_offsets);
  PARCT_SHADOW_BUFFER(shadow_out);
  const std::size_t num_blocks = (n + kBlock - 1) / kBlock;
  std::vector<std::uint32_t> local(num_blocks * num_keys, 0);
  par::parallel_for(0, num_blocks, [&](std::size_t b) {
    std::uint32_t* mine = local.data() + b * num_keys;
    const std::size_t hi = std::min((b + 1) * kBlock, n);
    for (std::size_t i = b * kBlock; i < hi; ++i) {
      PARCT_SHADOW_WRITE(
          analysis::buffer_cell(shadow_local, b * num_keys + key(i)));
      ++mine[key(i)];
    }
  }, 1);
  // Column-major exclusive scan over (key, block) in stable order:
  // offset(k, b) = sum over keys < k plus blocks < b within key k.
  std::vector<std::uint32_t> offsets(num_blocks * num_keys);
  std::uint32_t running = 0;
  for (std::size_t k = 0; k < num_keys; ++k) {
    for (std::size_t b = 0; b < num_blocks; ++b) {
      PARCT_SHADOW_WRITE(analysis::buffer_cell(shadow_offsets,
                                               b * num_keys + k));
      offsets[b * num_keys + k] = running;
      PARCT_SHADOW_READ(analysis::buffer_cell(shadow_local,
                                              b * num_keys + k));
      running += local[b * num_keys + k];
    }
  }
  par::parallel_for(0, num_blocks, [&](std::size_t b) {
    std::uint32_t* cursor = offsets.data() + b * num_keys;
    const std::size_t hi = std::min((b + 1) * kBlock, n);
    for (std::size_t i = b * kBlock; i < hi; ++i) {
      PARCT_SHADOW_WRITE(
          analysis::buffer_cell(shadow_offsets, b * num_keys + key(i)));
      // The scatter target proves stability/disjointness: two blocks
      // writing the same out slot would be a write-write race.
      PARCT_SHADOW_WRITE(analysis::buffer_cell(shadow_out, cursor[key(i)]));
      out[cursor[key(i)]++] = static_cast<std::uint32_t>(i);
    }
  }, 1);
  return out;
}

}  // namespace parct::prim
