// Logical shadow-cell keys for the SP-bags determinacy-race detector.
//
// The detector tracks *logical* locations, not raw addresses: a 64-bit key
// names a cell of the contraction structure ((P, C, D) entries per vertex
// and round), a slot of a named scratch array, or an element of a per-call
// primitive buffer. Logical keys make the shadow map immune to allocator
// address reuse (a freed-and-reallocated vector would alias raw addresses
// across unrelated objects) and make race reports readable.
//
// This header is dependency-free on purpose: it is included from the
// annotation macros, which appear in headers across src/.
#pragma once

#include <cstdint>

namespace parct::analysis {

// One instrumented logical location. The value is an opaque packed id;
// spbags::describe() (sp_bags.cpp) decodes it for race reports.
struct ShadowKey {
  std::uint64_t value;
};

// Key spaces, packed into the top 4 bits.
enum class ShadowSpace : std::uint64_t {
  kRecordParent = 1,  // (sid, v, round): RoundRecord::parent + parent_slot
  kRecordChild = 2,   // (sid, v, round, slot): RoundRecord::children[slot]
  kRecordRounds = 3,  // (sid, v): the rounds vector itself (size/growth)
  kDuration = 4,      // (sid, v): the duration entry D[v]
  kScratch = 5,       // (array, index): a named long-lived scratch array
  kBuffer = 6,        // (nonce, index): a per-call primitive buffer
};

// Named scratch arrays (construct's status vector, DynamicUpdater's
// epoch-stamped marks and claim-then-pack staging arrays).
enum class ShadowArray : std::uint64_t {
  kConstructStatus = 0,  // construct.cpp: per-round classification
  kMarkL = 1,            // dynamic_update: epoch marks for L
  kMarkLX = 2,           // dynamic_update: epoch marks for L ∪ X
  kStatusG = 3,          // dynamic_update: kind in the new contraction G
  kOldLeaf = 4,          // dynamic_update: leaf-in-F (old forest) flags
  kCand = 5,             // dynamic_update: claim-then-pack candidate slots
  kRCEvents = 6,         // rc_forest: the derived per-vertex event table
};

namespace detail {

// Layouts (top 4 bits are always the space tag):
//   structure cells:  tag(4) | sid(10) | v(32) | round(15) | slot(3)
//   scratch cells:    tag(4) | array(6) | 0(22) | index(32)
//   buffer cells:     tag(4) | nonce(28) | index(32)
constexpr std::uint64_t tag(ShadowSpace s) {
  return static_cast<std::uint64_t>(s) << 60;
}

constexpr std::uint64_t structure_key(ShadowSpace s, std::uint64_t sid,
                                      std::uint64_t v, std::uint64_t round,
                                      std::uint64_t slot) {
  return tag(s) | ((sid & 0x3FFu) << 50) | ((v & 0xFFFFFFFFu) << 18) |
         ((round & 0x7FFFu) << 3) | (slot & 0x7u);
}

}  // namespace detail

// RoundRecord::parent / parent_slot of vertex v at `round` (one cell: the
// two fields are always written together by the same writer).
constexpr ShadowKey record_parent_cell(std::uint32_t sid, std::uint32_t v,
                                       std::uint32_t round) {
  return {detail::structure_key(ShadowSpace::kRecordParent, sid, v, round, 0)};
}

// RoundRecord::children[slot] of vertex v at `round`.
constexpr ShadowKey record_child_cell(std::uint32_t sid, std::uint32_t v,
                                      std::uint32_t round,
                                      std::uint32_t slot) {
  return {
      detail::structure_key(ShadowSpace::kRecordChild, sid, v, round, slot)};
}

// The per-vertex rounds vector as a whole: growing it (ensure_round) is a
// write; indexing into it (record/record_mut) is a read. This catches
// resize-during-access races that per-field cells cannot see.
constexpr ShadowKey record_rounds_cell(std::uint32_t sid, std::uint32_t v) {
  return {detail::structure_key(ShadowSpace::kRecordRounds, sid, v, 0, 0)};
}

// The duration entry D[v].
constexpr ShadowKey duration_cell(std::uint32_t sid, std::uint32_t v) {
  return {detail::structure_key(ShadowSpace::kDuration, sid, v, 0, 0)};
}

// Element `index` of a named scratch array.
constexpr ShadowKey scratch_cell(ShadowArray array, std::uint64_t index) {
  return {detail::tag(ShadowSpace::kScratch) |
          ((static_cast<std::uint64_t>(array) & 0x3Fu) << 32) |
          (index & 0xFFFFFFFFu)};
}

// Element `index` of the per-call buffer identified by `nonce` (obtained
// from PARCT_SHADOW_BUFFER, or from Workspace::Lease::shadow_nonce() for
// pooled scratch blocks — the arena mints a fresh nonce on every acquire).
// Fresh nonces per call/lease keep reused scratch allocations from
// aliasing across calls, so block recycling is never misreported as a
// race.
constexpr ShadowKey buffer_cell(std::uint64_t nonce, std::uint64_t index) {
  return {detail::tag(ShadowSpace::kBuffer) | ((nonce & 0x0FFFFFFFu) << 32) |
          (index & 0xFFFFFFFFu)};
}

}  // namespace parct::analysis
