// PromoteEdges (paper Fig. 2) for one vertex, written once: construction
// (Fig. 1, construct.cpp Phase C) runs it over the whole live set, and
// change propagation (Fig. 4, dynamic_update.cpp Phase D) re-runs it over
// NL, the affected vertices and their neighbours. The static step and its
// re-execution are the same code, as self-adjusting computation intends.
#pragma once

#include <cstdint>

#include "analysis/annotations.hpp"
#include "contraction/contraction_forest.hpp"
#include "contraction/hooks.hpp"

namespace parct::contract {

/// Writes v's share of the round-(i+1) records and fires v's round-i event.
/// `kind` is how v contracts in round i; `survives(u)` says whether a
/// round-i neighbour u of v survives round i. Every round-(i+1) field has
/// exactly one writer across a round's calls: a vertex's parent pointer is
/// written by its surviving parent or by its compressing parent, and child
/// slot (p, j) by the surviving vertex that owns j or by the vertex its
/// compressing owner hands it to. Does not touch durations: construct sets
/// them as vertices die, propagation once they are dead in both forests.
template <typename Survives>
void promote_edges(ContractionForest& c, std::uint32_t i, VertexId v,
                   Kind kind, const Survives& survives, EventHooks* hooks) {
  PARCT_SHADOW_READ_REC(c.shadow_id(), v, i);
  const RoundRecord& r = c.record(i, v);
  switch (kind) {
    case Kind::kSurvive: {
      if (hooks) hooks->on_vertex_persist(i, v);
      if (r.parent != v && survives(r.parent)) {
        PARCT_SHADOW_WRITE(analysis::record_child_cell(
            c.shadow_id(), r.parent, i + 1, r.parent_slot));
        c.record_mut(i + 1, r.parent).children[r.parent_slot] = v;
        if (hooks) hooks->on_edge_persist(i, v, r.parent);
      }
      for (int s = 0; s < kMaxDegree; ++s) {
        const VertexId u = r.children[s];
        if (u == kNoVertex || !survives(u)) continue;
        PARCT_SHADOW_WRITE(
            analysis::record_parent_cell(c.shadow_id(), u, i + 1));
        RoundRecord& ru = c.record_mut(i + 1, u);
        ru.parent = v;
        ru.parent_slot = static_cast<std::uint8_t>(s);
      }
      break;
    }
    case Kind::kFinalize:
      if (hooks) hooks->on_finalize(i, v);
      break;
    case Kind::kRake:
      if (hooks) hooks->on_rake(i, v, r.parent);
      break;
    case Kind::kCompress: {
      // Both endpoints survive (the parent flipped tails, the child is not
      // a leaf and flipped tails), so their round-(i+1) records exist.
      const VertexId u = only_child(r.children);
      PARCT_SHADOW_WRITE(analysis::record_child_cell(
          c.shadow_id(), r.parent, i + 1, r.parent_slot));
      c.record_mut(i + 1, r.parent).children[r.parent_slot] = u;
      PARCT_SHADOW_WRITE(
          analysis::record_parent_cell(c.shadow_id(), u, i + 1));
      RoundRecord& ru = c.record_mut(i + 1, u);
      ru.parent = r.parent;
      ru.parent_slot = r.parent_slot;
      if (hooks) hooks->on_compress(i, v, u, r.parent);
      break;
    }
  }
}

}  // namespace parct::contract
