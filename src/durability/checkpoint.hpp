// Checkpoint container: one versioned file holding the contraction
// structure (contract::save) and the aggregate weight table
// (rc::save_weight_table) as CRC32-trailed sections. Written via temp
// file + fsync + atomic rename + directory fsync — the rename is the
// commit point, so a reader never observes a half-written checkpoint and
// a crashed writer leaves only an ignorable `.tmp`. Formats in
// docs/DURABILITY.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "durability/wal.hpp"

namespace parct::durability {

inline constexpr std::uint64_t kCheckpointMagic =
    0x50415243'54434B50ull;  // "PARCTCKP"
inline constexpr std::uint32_t kCheckpointFormatVersion = 1;

struct Checkpoint {
  std::uint64_t version = 0;
  contract::ContractionForest forest;
  std::vector<Weight> weights;
};

/// Writes `checkpoint-<version>.ckpt` into `dir` atomically; returns the
/// final path. Throws std::runtime_error (or fault::InjectedFault from
/// the `durability-fsync` / `durability-rename` sites) on failure — the
/// previous checkpoint is then still the newest valid one.
std::string write_checkpoint(const std::string& dir, std::uint64_t version,
                             const contract::ContractionForest& c,
                             const std::vector<Weight>& weights);

/// Parses and fully validates one checkpoint file (magic, per-section
/// CRC32, and the hardened contract::load / rc::load_weight_table
/// decoders, each of which must consume its section exactly). The file
/// is read once into one buffer and its sections are decoded in place.
/// Throws std::runtime_error on any corruption or truncation.
Checkpoint read_checkpoint(const std::string& path);

/// `checkpoint-<version>.ckpt` naming: the version encoded in a file
/// name, or nullopt if `filename` is not a (final, non-tmp) checkpoint.
std::optional<std::uint64_t> checkpoint_version_of(
    const std::string& filename);
std::string checkpoint_filename(std::uint64_t version);

}  // namespace parct::durability
