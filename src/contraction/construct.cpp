#include "contraction/construct.hpp"

#include "analysis/annotations.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/parallel_for.hpp"
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

  // Phase C: PromoteEdges (paper Fig. 2). Every round-(i+1) field has
  // exactly one writer: a vertex's parent pointer is written by its
  // surviving parent or by its compressing parent's promotion; child slot
  // (p, j) is written by the surviving vertex owning j or by the vertex
  // its compressing owner hands it to.
  par::adaptive_for(0, n, [&](std::size_t k) {
    const VertexId v = live[k];
    PARCT_SHADOW_READ(analysis::scratch_cell(
        analysis::ShadowArray::kConstructStatus, v));
    PARCT_SHADOW_READ_REC(c.shadow_id(), v, i);
    const RoundRecord& r = c.record(i, v);
    switch (status[v]) {
      case Kind::kSurvive: {
        if (hooks) hooks->on_vertex_persist(i, v);
        PARCT_SHADOW_READ(analysis::scratch_cell(
            analysis::ShadowArray::kConstructStatus, r.parent));
        if (r.parent != v && status[r.parent] == Kind::kSurvive) {
          PARCT_SHADOW_WRITE(analysis::record_child_cell(
              c.shadow_id(), r.parent, i + 1, r.parent_slot));
          c.record_mut(i + 1, r.parent).children[r.parent_slot] = v;
          if (hooks) hooks->on_edge_persist(i, v, r.parent);
        }
        for (int s = 0; s < kMaxDegree; ++s) {
          const VertexId u = r.children[s];
          if (u == kNoVertex) continue;
          PARCT_SHADOW_READ(analysis::scratch_cell(
              analysis::ShadowArray::kConstructStatus, u));
          if (status[u] != Kind::kSurvive) continue;
          PARCT_SHADOW_WRITE(
              analysis::record_parent_cell(c.shadow_id(), u, i + 1));
          RoundRecord& ru = c.record_mut(i + 1, u);
          ru.parent = v;
          ru.parent_slot = static_cast<std::uint8_t>(s);
        }
        break;
      }
      case Kind::kFinalize:
        c.set_duration(v, i + 1);
        if (hooks) hooks->on_finalize(i, v);
        break;
      case Kind::kRake:
        c.set_duration(v, i + 1);
        if (hooks) hooks->on_rake(i, v, r.parent);
        break;
      case Kind::kCompress: {
        const VertexId u = only_child(r.children);
        // Both endpoints survive (the parent flipped tails, the child is
        // not a leaf and flipped tails), so their records exist.
        PARCT_SHADOW_WRITE(analysis::record_child_cell(
            c.shadow_id(), r.parent, i + 1, r.parent_slot));
        c.record_mut(i + 1, r.parent).children[r.parent_slot] = u;
        PARCT_SHADOW_WRITE(
            analysis::record_parent_cell(c.shadow_id(), u, i + 1));
        RoundRecord& ru = c.record_mut(i + 1, u);
        ru.parent = r.parent;
        ru.parent_slot = r.parent_slot;
        c.set_duration(v, i + 1);
        if (hooks) hooks->on_compress(i, v, u, r.parent);
        break;
      }
    }
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

}  // namespace parct::contract
