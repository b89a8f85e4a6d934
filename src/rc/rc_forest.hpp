// RC-forest application layer: queries answered from the contraction data
// structure, in the style of RC-trees (paper refs [2, 4], the application
// the paper motivates).
//
// Key derived notion: every vertex dies by finalizing, raking or
// compressing (paper §2.2); rakes and compresses merge the vertex into its
// current *parent*, which dies strictly later. Following these
// "representative" links therefore climbs a chain of strictly increasing
// death rounds and ends, in O(log n) expected steps, at the unique
// finalizing vertex of the tree — its root. This gives O(log n) root
// finding and connectivity on the dynamically maintained forest.
#pragma once

#include <cstdint>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "forest/types.hpp"

namespace parct::rc {

enum class EventKind : std::uint8_t {
  kAbsent = 0,  // vertex not in the forest
  kFinalize,
  kRake,
  kCompress,
};

struct Event {
  EventKind kind = EventKind::kAbsent;
  std::uint32_t round = 0;        // contraction round the vertex dies in
  VertexId into = kNoVertex;      // merge target (parent); kNoVertex if none
  VertexId over = kNoVertex;      // compress only: the child handed over
};

class RCForest {
 public:
  /// Derives all events from `c` (which must be fully constructed). Keeps
  /// a reference to `c`; call `rebuild` (or `refresh`) after updates.
  explicit RCForest(const contract::ContractionForest& c);

  /// Re-derives every vertex's event. O(capacity).
  void rebuild();

  /// Re-derives events of `vertices` only — pass a dynamic update's
  /// DynamicUpdater::touched(), for work proportional to the affected
  /// region. Any superset works too (duplicates included).
  void refresh(const std::vector<VertexId>& vertices);

  const contract::ContractionForest& structure() const { return c_; }

  /// Number of vertex slots with derived events (== the structure's
  /// capacity at the last rebuild/refresh) — the bound for valid ids.
  std::size_t size() const { return events_.size(); }

  bool present(VertexId v) const {
    return v < events_.size() && events_[v].kind != EventKind::kAbsent;
  }
  const Event& event(VertexId v) const { return events_[v]; }

  /// The derived event table itself — what the serving layer copies into
  /// an immutable snapshot (service/snapshot.hpp).
  const std::vector<Event>& events() const { return events_; }

  /// The vertex v merges into at death (kNoVertex for finalizers).
  VertexId representative(VertexId v) const { return events_[v].into; }

  /// Root of v's tree: climbs the representative chain, O(log n) expected.
  VertexId root(VertexId v) const;

  /// Same-tree query via root(), O(log n) expected.
  bool connected(VertexId u, VertexId v) const {
    return root(u) == root(v);
  }

  /// Steps taken by root(v) — exposed for the O(log n) property tests.
  std::size_t chain_length(VertexId v) const;

 private:
  void derive(VertexId v);

  const contract::ContractionForest& c_;
  std::vector<Event> events_;
};

}  // namespace parct::rc
