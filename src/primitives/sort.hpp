// Parallel stable merge sort: O(n log n) work, polylog span (parallel
// recursive sorting with a sequential merge per node; merges at the top
// levels dominate span but stay well below the sort's cost in practice).
// Used for grouping workloads by key (e.g. batch insertions by parent).
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/fork_join.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/workspace.hpp"

namespace parct::prim {

namespace detail {

/// Stable sequential merge sort of data[0, n) through buffer[0, n):
/// insertion-sorted runs of kRun, then bottom-up merges that alternate
/// between the two arrays. Allocates nothing (std::stable_sort would
/// heap-allocate its own temporary buffer on every call).
template <typename T, typename Less>
void sequential_merge_sort(T* data, T* buffer, std::size_t n,
                           const Less& less) {
  constexpr std::size_t kRun = 16;
  for (std::size_t lo = 0; lo < n; lo += kRun) {
    const std::size_t hi = std::min(lo + kRun, n);
    for (std::size_t j = lo + 1; j < hi; ++j) {
      T x = std::move(data[j]);
      std::size_t k = j;
      for (; k > lo && less(x, data[k - 1]); --k) {
        data[k] = std::move(data[k - 1]);
      }
      data[k] = std::move(x);
    }
  }
  T* from = data;
  T* to = buffer;
  for (std::size_t width = kRun; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::merge(from + lo, from + mid, from + mid, from + hi, to + lo, less);
    }
    std::swap(from, to);
  }
  if (from != data) std::copy(from, from + n, data);
}

template <typename T, typename Less>
void merge_sort_rec(T* data, T* buffer, std::size_t n, const Less& less,
                    std::size_t grain) {
  if (n <= grain) {
    sequential_merge_sort(data, buffer, n, less);
    return;
  }
  const std::size_t mid = n / 2;
  par::fork2join(
      [&] { merge_sort_rec(data, buffer, mid, less, grain); },
      [&] { merge_sort_rec(data + mid, buffer + mid, n - mid, less, grain); });
  std::merge(data, data + mid, data + mid, data + n, buffer, less);
  std::copy(buffer, buffer + n, data);
}

}  // namespace detail

/// Stable in-place sort of `v` by `less`, parallel over sub-ranges. The
/// merge buffer is leased from `ws`, so steady-state calls do not
/// allocate, also on the sequential path.
template <typename T, typename Less = std::less<T>>
void parallel_sort_into(std::vector<T>& v, Less less, Workspace& ws) {
  // Workspace blocks are raw storage: a T that needs construction cannot
  // live in them.
  static_assert(std::is_trivially_copyable_v<T>,
                "parallel_sort_into sorts trivially copyable elements");
  const std::size_t n = v.size();
  if (n < 2) return;
  // Small inputs and 1-worker pools sort sequentially (grain n). Under race
  // detection take the parallel shape even for small inputs so the
  // detector sees the real fork tree (the sort's own ranges are disjoint
  // by construction; annotated accesses in user comparators get the proper
  // bags).
  std::size_t grain = n;
  if (par::race_detect_forced()) {
    grain = 32;
  } else if (par::scheduler::num_workers() > 1 && n > 4096) {
    grain = std::max<std::size_t>(4096,
                                  n / (8 * par::scheduler::num_workers()));
  }
  auto buffer = ws.acquire<T>(n);
  detail::merge_sort_rec(v.data(), buffer.data(), n, less, grain);
}

}  // namespace parct::prim
