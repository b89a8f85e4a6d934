// Small parallel sequence utilities used across the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace parct::prim {

/// vector {f(0), f(1), ..., f(n-1)} built in parallel.
template <typename F>
auto tabulate(std::size_t n, const F& f) {
  using T = decltype(f(std::size_t{0}));
  std::vector<T> out(n);
  // Generic primitives write caller-owned cells at the iteration's own
  // index. A per-call buffer nonce would decouple them from the caller's
  // keys, so callers that need detector coverage annotate at their call
  // site with their own keys, as rc/batch_queries.hpp does.
  // parct-lint: allow(shadow-write) reason: iteration-owned index
  par::parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

template <typename T>
void fill(std::vector<T>& v, const T& value) {
  // As in tabulate, callers annotate at their call site.
  // parct-lint: allow(shadow-write) reason: iteration-owned index
  par::parallel_for(0, v.size(), [&](std::size_t i) { v[i] = value; });
}

/// {0, 1, ..., n-1}.
inline std::vector<std::uint32_t> iota(std::size_t n) {
  return tabulate(n, [](std::size_t i) {
    return static_cast<std::uint32_t>(i);
  });
}

template <typename T>
T sum(const std::vector<T>& v) {
  return par::parallel_reduce(
      0, v.size(), T{}, [&](std::size_t i) { return v[i]; },
      [](T a, T b) { return a + b; });
}

template <typename Pred>
std::size_t count_if_index(std::size_t n, const Pred& pred) {
  return par::parallel_reduce(
      0, n, std::size_t{0},
      [&](std::size_t i) { return pred(i) ? std::size_t{1} : std::size_t{0}; },
      [](std::size_t a, std::size_t b) { return a + b; });
}

template <typename T>
T max_value(const std::vector<T>& v, T lowest = std::numeric_limits<T>::lowest()) {
  return par::parallel_reduce(
      0, v.size(), lowest, [&](std::size_t i) { return v[i]; },
      [](T a, T b) { return a > b ? a : b; });
}

template <typename Pred>
bool all_of_index(std::size_t n, const Pred& pred) {
  return par::parallel_reduce(
      0, n, true, [&](std::size_t i) { return pred(i); },
      [](bool a, bool b) { return a && b; });
}

}  // namespace parct::prim
