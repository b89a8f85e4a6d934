#include "parallel/adaptive.hpp"

#include <atomic>

namespace parct::par {

namespace {

// Small enough that genuinely parallel-profitable frontiers stay parallel
// on any plausible machine, large enough to cover the tail rounds of
// small-batch propagation.
constexpr std::size_t kSerialCutover = 1024;

std::atomic<std::size_t> g_cutover{kSerialCutover};

}  // namespace

std::size_t serial_cutover() {
  return g_cutover.load(std::memory_order_relaxed);
}

void set_serial_cutover(std::size_t cutover) {
  g_cutover.store(cutover, std::memory_order_relaxed);
}

void clear_serial_cutover() {
  g_cutover.store(kSerialCutover, std::memory_order_relaxed);
}

}  // namespace parct::par
