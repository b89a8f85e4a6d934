// Binary (de)serialization of contraction data structures. The coin
// schedule is a pure function of its master seed, so only the seed is
// stored; a loaded structure supports dynamic updates exactly like the
// original (identical future coin flips).
#pragma once

#include <string>

#include "contraction/contraction_forest.hpp"
#include "primitives/bytes.hpp"

namespace parct::contract {

/// Appends `c` to `out` in the parct binary format (little-endian hosts).
void save(const ContractionForest& c, std::string& out);

/// Reads a structure written by `save` from `in`, leaving the cursor just
/// past it. Throws std::runtime_error on malformed or truncated input.
ContractionForest load(prim::ByteReader& in);

}  // namespace parct::contract
