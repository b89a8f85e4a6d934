// The traced run: replays a workload's inputs serially through each
// layer's public functions, in the order BatchServer::process_epoch calls
// them, recording one span per call. The spans give the per-layer
// numbers; the served path itself is measured untraced (serve.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Request ids of spans outside the update epochs (an epoch's request id
/// is its update index).
inline constexpr std::uint64_t kSetupRequest = 1ull << 40;
inline constexpr std::uint64_t kValidateSampleRequest = 2ull << 40;
inline constexpr std::uint64_t kProbeRequest = 3ull << 40;
inline constexpr std::uint64_t kRecoverRequest = 4ull << 40;

struct ReplayResult {
  std::vector<double> touched;          // TouchedRecorder set size per update
  std::vector<double> wal_record_bytes; // WAL growth per append
  double construct_heap_mb = 0;
  double chain_steps = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t recovery_replayed = 0;
};

/// Replays the first `updates` batches of `in` (the updates the untraced
/// run applied), crashes, and recovers, recording spans into `tr`.
/// Durability files go under `dir`. Output mismatches count in `report`.
ReplayResult replay(const WorkloadSpec& spec, const Inputs& in,
                    std::size_t updates, const std::string& dir, Tracer& tr,
                    Report& report);

}  // namespace perfbench
