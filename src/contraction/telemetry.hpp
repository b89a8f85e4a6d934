// Phase telemetry for construct/dynamic_update and the serving epoch:
// stats_now()/stats_since() give cheap explicit timestamps, which the
// callers accumulate into their stats' phase_seconds / *_seconds fields.
#pragma once

#include <chrono>

namespace parct::contract {

using StatsTimePoint = std::chrono::steady_clock::time_point;

inline StatsTimePoint stats_now() { return std::chrono::steady_clock::now(); }

/// Seconds since `t0`.
inline double stats_since(StatsTimePoint t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace parct::contract
