#include "contraction/construct.hpp"

#include "analysis/annotations.hpp"
#include "contraction/promote.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/parallel_for.hpp"
#include "primitives/counting.hpp"
#include "primitives/pack.hpp"

namespace parct::contract {

namespace {

// One round of RandomizedContract (paper Fig. 1): classify every live
// vertex, allocate next-round records for survivors, promote edges, then
// compact the live set into `next_live` (double-buffered by the caller so
// no round allocates a fresh live vector; scan scratch leases from `ws`).
void randomized_contract(ContractionForest& c, std::uint32_t i,
                         const std::vector<VertexId>& live,
                         std::vector<VertexId>& next_live,
                         std::vector<Kind>& status, EventHooks* hooks,
                         ConstructStats& stats, Workspace& ws) {
  ws.epoch_reset();  // round boundary: no scratch lease crosses rounds
  c.coins().ensure_rounds(i + 2);
  const std::size_t n = live.size();

  // The late contraction tail (live set below the adaptive cutover) runs
  // each round inline — the same fast path small-batch updates take (see
  // parallel/adaptive.hpp). Serial rounds are timed whole into
  // phase_seconds[kPhaseConstructSerial]; per-phase brackets would cost
  // more clock reads than the round does work.
  const par::AdaptivePhase round_mode(n);
  stats.chose_serial += round_mode.serial() ? 1 : 0;
  StatsTimePoint t_phase = stats_now();
  auto phase_done = [&](double& sink) {
    if (round_mode.serial()) return;
    sink += stats_since(t_phase);
    t_phase = stats_now();
  };

  // Phase A: contraction decisions. `status` is indexed by vertex id and
  // only entries of live vertices are read, so no per-round reset needed.
  par::adaptive_for(0, n, [&](std::size_t k) {
    PARCT_SHADOW_WRITE(analysis::scratch_cell(
        analysis::ShadowArray::kConstructStatus, live[k]));
    status[live[k]] = c.classify(i, live[k]);
  });
  phase_done(stats.phase_seconds[kPhaseClassify]);

  // Phase B: allocate and blank the round-(i+1) record of every survivor.
  // Each iteration touches only its own vertex's history, so growth is
  // race-free.
  {
    par::adaptive_for(0, n, [&](std::size_t k) {
      const VertexId v = live[k];
      PARCT_SHADOW_READ(analysis::scratch_cell(
          analysis::ShadowArray::kConstructStatus, v));
      if (status[v] != Kind::kSurvive) return;
      c.ensure_round(v, i + 1);
      PARCT_SHADOW_WRITE_REC(c.shadow_id(), v, i + 1);
      RoundRecord& r = c.record_mut(i + 1, v);
      r.parent = v;
      r.parent_slot = 0;
      r.children = kEmptyChildren;
    });
  }
  phase_done(stats.phase_seconds[kPhaseAllocate]);

  // Phase C: PromoteEdges (paper Fig. 2, contraction/promote.hpp), then
  // the death rounds of the vertices that contract.
  auto survives = [&](VertexId u) {
    PARCT_SHADOW_READ(analysis::scratch_cell(
        analysis::ShadowArray::kConstructStatus, u));
    return status[u] == Kind::kSurvive;
  };
  par::adaptive_for(0, n, [&](std::size_t k) {
    const VertexId v = live[k];
    PARCT_SHADOW_READ(analysis::scratch_cell(
        analysis::ShadowArray::kConstructStatus, v));
    const Kind kind = status[v];
    promote_edges(c, i, v, kind, survives, hooks);
    if (kind != Kind::kSurvive) c.set_duration(v, i + 1);
  });
  phase_done(stats.phase_seconds[kPhasePromoteEdges]);

  // Phase D: compact the live set (the paper's C(n) subroutine).
  prim::pack_into(live, [&](std::size_t k) {
    PARCT_SHADOW_READ(analysis::scratch_cell(
        analysis::ShadowArray::kConstructStatus, live[k]));
    return status[live[k]] == Kind::kSurvive;
  }, next_live, ws);
  phase_done(stats.phase_seconds[kPhaseCompact]);
  if (round_mode.serial()) {
    stats.phase_seconds[kPhaseConstructSerial] += stats_since(t_phase);
  }
}

}  // namespace

ConstructStats construct(ContractionForest& c, const forest::Forest& f,
                         EventHooks* hooks, Workspace* workspace) {
  const StatsTimePoint t_begin = stats_now();
  Workspace local_ws;
  Workspace& ws = workspace != nullptr ? *workspace : local_ws;
  const WorkspaceStats ws_begin = ws.stats();
  c.init_from_forest(f);
  if (hooks) hooks->on_begin(c.capacity());
  std::vector<VertexId> live = f.vertices();
  std::vector<VertexId> next_live;
  std::vector<Kind> status(c.capacity(), Kind::kSurvive);

  ConstructStats stats;
  std::uint32_t i = 0;
  while (!live.empty()) {
    stats.total_live += live.size();
    stats.live_per_round.push_back(static_cast<std::uint32_t>(live.size()));
    randomized_contract(c, i, live, next_live, status, hooks, stats, ws);
    std::swap(live, next_live);  // both buffers keep their capacity
    ++i;
  }
  stats.rounds = i;
  stats.total_seconds = stats_since(t_begin);
  const WorkspaceStats ws_delta = workspace_stats_delta(ws_begin, ws.stats());
  stats.ws_acquires = ws_delta.acquires;
  stats.ws_hits = ws_delta.hits;
  stats.ws_misses = ws_delta.misses;
  stats.ws_bytes_allocated = ws_delta.bytes_allocated;
  stats.ws_container_growths = ws_delta.container_growths;
  stats.ws_container_bytes = ws_delta.container_bytes;
  return stats;
}

void replay(const ContractionForest& c, EventHooks& hooks) {
  hooks.on_begin(c.capacity());
  // Vertices by increasing duration: round i's live set is the suffix of
  // those with duration > i.
  const std::uint32_t rounds = c.num_rounds();
  const std::vector<VertexId> order = prim::counting_sort_indices(
      c.capacity(),
      [&](std::size_t v) { return c.duration(static_cast<VertexId>(v)); },
      rounds + 1);
  std::size_t first = 0;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    while (c.duration(order[first]) <= i) ++first;
    // Each iteration reads only its own vertex's records, which no one
    // writes here, and fires that vertex's events.
    par::adaptive_for(first, order.size(), [&](std::size_t k) {
      const VertexId v = order[k];
      PARCT_SHADOW_READ_REC(c.shadow_id(), v, i);
      const RoundRecord& r = c.record(i, v);
      if (c.duration(v) > i + 1) {
        hooks.on_vertex_persist(i, v);
        // A survivor keeps its parent unless the parent compresses over
        // it, which hands it the grandparent.
        PARCT_SHADOW_READ(
            analysis::record_parent_cell(c.shadow_id(), v, i + 1));
        if (r.parent != v && c.record(i + 1, v).parent == r.parent) {
          hooks.on_edge_persist(i, v, r.parent);
        }
      } else if (!children_empty(r.children)) {
        hooks.on_compress(i, v, only_child(r.children), r.parent);
      } else if (r.parent == v) {
        hooks.on_finalize(i, v);
      } else {
        hooks.on_rake(i, v, r.parent);
      }
    });
  }
}

}  // namespace parct::contract
