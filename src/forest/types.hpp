// Common vocabulary types for forests and contraction structures.
#pragma once

#include <array>
#include <cstdint>

namespace parct {

/// Dense vertex identifier. Vertices live in a fixed universe
/// [0, capacity); forests and contraction structures share it.
using VertexId = std::uint32_t;

/// Sentinel "no vertex" (empty child slot, absent parent, ...).
inline constexpr VertexId kNoVertex = 0xFFFFFFFFu;

/// Compile-time cap on the per-vertex degree bound `t` (the paper assumes
/// bounded degree; its experiments use t = 4). Child sets are fixed slotted
/// arrays of this capacity.
inline constexpr int kMaxDegree = 8;

using ChildArray = std::array<VertexId, kMaxDegree>;

inline constexpr ChildArray kEmptyChildren = {
    kNoVertex, kNoVertex, kNoVertex, kNoVertex,
    kNoVertex, kNoVertex, kNoVertex, kNoVertex};

/// Directed edge: `child`'s parent is `parent` (edges point child -> parent,
/// paper §2.2).
struct Edge {
  VertexId child = kNoVertex;
  VertexId parent = kNoVertex;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Number of occupied slots.
inline int child_count(const ChildArray& c) {
  int n = 0;
  for (int s = 0; s < kMaxDegree; ++s) n += (c[s] != kNoVertex) ? 1 : 0;
  return n;
}

inline bool children_empty(const ChildArray& c) {
  for (int s = 0; s < kMaxDegree; ++s) {
    if (c[s] != kNoVertex) return false;
  }
  return true;
}

/// If exactly one slot is occupied returns that vertex, else kNoVertex.
inline VertexId only_child(const ChildArray& c) {
  VertexId found = kNoVertex;
  for (int s = 0; s < kMaxDegree; ++s) {
    if (c[s] != kNoVertex) {
      if (found != kNoVertex) return kNoVertex;
      found = c[s];
    }
  }
  return found;
}

/// First free slot with index < limit, or -1.
inline int find_free_slot(const ChildArray& c, int limit = kMaxDegree) {
  for (int s = 0; s < limit; ++s) {
    if (c[s] == kNoVertex) return s;
  }
  return -1;
}

}  // namespace parct
