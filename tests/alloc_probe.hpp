// Replaces global operator new so a test can observe the heap traffic of
// one piece of code on its own thread: how many allocations it makes and
// the largest single request. Replacement allocation functions may not be
// inline, so include this header from exactly one translation unit of a
// test binary.
//
// The nothrow form is replaced too (the standard library's temporary
// buffers use it), so every new pairs with the free below. The deletes
// stay out of line: inlined next to a `new`, GCC would read their free()
// as a mismatch with operator new.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace parct::test {

/// This thread's global operator new calls while a probe was armed.
struct Allocations {
  std::size_t count = 0;
  std::size_t largest = 0;  // bytes of the largest single request
};

namespace detail {
inline thread_local bool t_probe_armed = false;
inline thread_local Allocations t_probe;
}  // namespace detail

/// Runs `fn` and returns the allocations this thread made during it.
template <typename Fn>
Allocations allocations_during(Fn&& fn) {
  struct Disarm {
    ~Disarm() { detail::t_probe_armed = false; }
  } disarm;  // also if fn throws
  detail::t_probe = {};
  detail::t_probe_armed = true;
  fn();
  return detail::t_probe;
}

}  // namespace parct::test

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  using parct::test::detail::t_probe;
  if (parct::test::detail::t_probe_armed) {
    ++t_probe.count;
    t_probe.largest = std::max(t_probe.largest, n);
  }
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
