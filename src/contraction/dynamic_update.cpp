#include "contraction/dynamic_update.hpp"

#include <cassert>
#include <stdexcept>

#include "analysis/annotations.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/parallel_for.hpp"
#include "primitives/pack.hpp"
#include "primitives/sort.hpp"

namespace parct::contract {

namespace {
// Candidate-buffer width: a vertex plus its parent plus up to kMaxDegree
// children.
constexpr std::size_t kWidth = kMaxDegree + 2;

// Shorthand for the shadow cells of the updater's scratch arrays.
constexpr analysis::ShadowKey cand_cell(std::size_t k) {
  return analysis::scratch_cell(analysis::ShadowArray::kCand, k);
}
constexpr analysis::ShadowKey mark_l_cell(VertexId v) {
  return analysis::scratch_cell(analysis::ShadowArray::kMarkL, v);
}
constexpr analysis::ShadowKey mark_lx_cell(VertexId v) {
  return analysis::scratch_cell(analysis::ShadowArray::kMarkLX, v);
}
constexpr analysis::ShadowKey status_g_cell(VertexId v) {
  return analysis::scratch_cell(analysis::ShadowArray::kStatusG, v);
}
constexpr analysis::ShadowKey old_leaf_cell(VertexId v) {
  return analysis::scratch_cell(analysis::ShadowArray::kOldLeaf, v);
}
constexpr analysis::ShadowKey new_leaf_cell(VertexId v) {
  return analysis::scratch_cell(analysis::ShadowArray::kNewLeaf, v);
}
}  // namespace

DynamicUpdater::DynamicUpdater(ContractionForest& c) : c_(c) {
  grow_scratch();
}

void DynamicUpdater::grow_scratch() {
  const std::size_t cap = c_.capacity();
  if (cap <= scratch_cap_) return;
  // Epoch stamps need not survive growth: fresh zeroed arrays are "never
  // claimed" since epochs start at 1.
  claim_ = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
  for (std::size_t v = 0; v < cap; ++v) {
    claim_[v].store(0, std::memory_order_relaxed);
  }
  mark_l_.assign(cap, 0);
  mark_lx_.assign(cap, 0);
  status_g_.assign(cap, 0);
  old_leaf_.assign(cap, 0);
  new_leaf_.assign(cap, 0);
  scratch_cap_ = cap;
}

UpdateStats DynamicUpdater::apply(const forest::ChangeSet& m,
                                  EventHooks* hooks) {
  UpdateStats stats;
  if (m.empty()) return stats;
  const StatsTimePoint t_begin = stats_now();
  const WorkspaceStats ws_begin = ws_.stats();
  ws_.epoch_reset();

  // --- capacity for fresh vertex ids ---------------------------------
  std::size_t need = c_.capacity();
  for (VertexId v : m.add_vertices) {
    need = std::max<std::size_t>(need, static_cast<std::size_t>(v) + 1);
  }
  c_.ensure_capacity(need);
  grow_scratch();
  if (hooks) hooks->on_begin(c_.capacity());

  lset_.clear();
  xset_.clear();

  // --- initial phase (paper Fig. 3, lines 2-18): O(m) work, low span. --
  // One adaptive decision covers the whole phase: a small batch runs it
  // inline (every loop, pack and sort below degenerates to its sequential
  // path with zero scheduler interaction).
  const std::size_t num_edges = m.remove_edges.size() + m.add_edges.size();
  const std::size_t batch_n =
      m.remove_vertices.size() + m.add_vertices.size() + 2 * num_edges;
  {
  const par::AdaptivePhase initial_mode(batch_n);
  stats.chose_serial += initial_mode.serial() ? 1 : 0;
  const std::uint64_t e_vminus = ++epoch_;
  ws_.resize_tracked(xset_, m.remove_vertices.size());
  par::adaptive_for(0, m.remove_vertices.size(), [&](std::size_t k) {
    const VertexId v = m.remove_vertices[k];
    claim_[v].store(e_vminus, std::memory_order_relaxed);
    // Each k is written once, by the iteration that owns it; the claim_
    // CAS protocol is what the detector audits in this phase.
    // parct-lint: allow(shadow-write) reason: iteration-owned index
    xset_[k] = {v, 0};
  });

  // V+ vertices "were previously dead" (D[v] = 0) and start with fresh,
  // isolated round-0 records. They also join L (claimed below with the
  // endpoints; V+ ids are fresh so their claims always win).
  const std::uint64_t e_l0 = ++epoch_;
  par::adaptive_for(0, m.add_vertices.size(), [&](std::size_t k) {
    const VertexId v = m.add_vertices[k];
    c_.set_duration(v, 0);
    c_.ensure_round(v, 0);
    PARCT_SHADOW_WRITE_REC(c_.shadow_id(), v, 0);
    c_.record_mut(0, v) = RoundRecord{v, 0, kEmptyChildren};
  });

  // U = endpoints of E- and E+; all of U \ V- joins L, as does V+.
  // Claim-then-pack produces a duplicate-free L0; the same pass captures
  // the pre-edit leaf statuses (for the leaf-change rule below).
  auto edge_at = [&](std::size_t k) -> const Edge& {
    return k < m.remove_edges.size()
               ? m.remove_edges[k]
               : m.add_edges[k - m.remove_edges.size()];
  };
  assign_tracked(cand_, m.add_vertices.size() + 2 * num_edges, kNoVertex);
  par::adaptive_for(0, m.add_vertices.size(), [&](std::size_t k) {
    const VertexId v = m.add_vertices[k];
    if (try_claim(v, e_l0)) {
      PARCT_SHADOW_WRITE(cand_cell(k));
      cand_[k] = v;
    }
  });
  const std::size_t edge_cand_base = m.add_vertices.size();
  par::adaptive_for(0, num_edges, [&](std::size_t k) {
    const Edge& e = edge_at(k);
    VertexId* out = cand_.data() + edge_cand_base + 2 * k;
    for (int side = 0; side < 2; ++side) {
      const VertexId v = side == 0 ? e.child : e.parent;
      if (claimed(v, e_vminus)) continue;  // deleted: tracked via X
      if (try_claim(v, e_l0)) {
        PARCT_SHADOW_WRITE(cand_cell(edge_cand_base + 2 * k + side));
        out[side] = v;
        if (c_.duration(v) > 0) {  // pre-existing: remember leaf status
          PARCT_SHADOW_READ_CHILDREN(c_.shadow_id(), v, 0);
          PARCT_SHADOW_WRITE(old_leaf_cell(v));
          old_leaf_[v] =
              children_empty(c_.record(0, v).children) ? 1 : 0;
        }
      }
    }
  });
  prim::pack_into(cand_, [&](std::size_t k) {
    PARCT_SHADOW_READ(cand_cell(k));
    return cand_[k] != kNoVertex;
  }, lset_, ws_);

  // Apply the edits to round 0: deletions first (freeing slots), then
  // insertions. Deletions touch disjoint (child, parent-slot) pairs and
  // run fully in parallel; insertions are grouped by parent (stable sort)
  // so each group assigns its parent's free slots sequentially.
  par::adaptive_for(0, m.remove_edges.size(), [&](std::size_t k) {
    const Edge& e = m.remove_edges[k];
    PARCT_SHADOW_READ(
        analysis::record_parent_cell(c_.shadow_id(), e.child, 0));
    RoundRecord& rc = c_.record_mut(0, e.child);
    assert(rc.parent == e.parent && "E- edge not present");
    PARCT_SHADOW_WRITE(analysis::record_child_cell(c_.shadow_id(), e.parent,
                                                   0, rc.parent_slot));
    c_.record_mut(0, e.parent).children[rc.parent_slot] = kNoVertex;
    PARCT_SHADOW_WRITE(
        analysis::record_parent_cell(c_.shadow_id(), e.child, 0));
    rc.parent = e.child;
    rc.parent_slot = 0;
  });
  {
    if (inserts_.capacity() < m.add_edges.size()) {
      ws_.note_container_growth(
          (m.add_edges.size() - inserts_.capacity()) * sizeof(Edge));
    }
    inserts_.assign(m.add_edges.begin(), m.add_edges.end());
    prim::parallel_sort_into(inserts_, [](const Edge& a, const Edge& b) {
      return a.parent < b.parent;
    }, ws_);
    std::atomic<bool> overflow{false};
    par::adaptive_for(0, inserts_.size(), [&](std::size_t k) {
      if (k > 0 && inserts_[k].parent == inserts_[k - 1].parent) {
        return;  // not a group head
      }
      RoundRecord& rp = c_.record_mut(0, inserts_[k].parent);
      for (std::size_t j = k;
           j < inserts_.size() && inserts_[j].parent == inserts_[k].parent;
           ++j) {
        PARCT_SHADOW_READ_CHILDREN(c_.shadow_id(), inserts_[k].parent, 0);
        const int slot = find_free_slot(rp.children, c_.degree_bound());
        if (slot < 0) {
          overflow.store(true, std::memory_order_relaxed);
          return;
        }
        PARCT_SHADOW_WRITE(analysis::record_child_cell(
            c_.shadow_id(), inserts_[k].parent, 0,
            static_cast<std::uint32_t>(slot)));
        rp.children[slot] = inserts_[j].child;
        PARCT_SHADOW_WRITE(analysis::record_parent_cell(
            c_.shadow_id(), inserts_[j].child, 0));
        RoundRecord& rc = c_.record_mut(0, inserts_[j].child);
        rc.parent = inserts_[j].parent;
        rc.parent_slot = static_cast<std::uint8_t>(slot);
      }
    });
    if (overflow.load()) {
      throw std::runtime_error(
          "ChangeSet insertion exceeds the degree bound");
    }
  }

  // A leaf-status flip of an endpoint affects its (post-edit) parent.
  assign_tracked(cand_, num_edges * 2, kNoVertex);
  par::adaptive_for(0, num_edges, [&](std::size_t k) {
    const Edge& e = edge_at(k);
    VertexId* out = cand_.data() + 2 * k;
    for (int side = 0; side < 2; ++side) {
      const VertexId v = side == 0 ? e.child : e.parent;
      // Only the claim winner evaluated v's old status; everyone may read
      // it now (claims finished at the barrier above), but only one writer
      // per flipped parent wins the L claim.
      if (claimed(v, e_vminus) || c_.duration(v) == 0) continue;
      PARCT_SHADOW_READ_CHILDREN(c_.shadow_id(), v, 0);
      const bool now_leaf = children_empty(c_.record(0, v).children);
      PARCT_SHADOW_READ(old_leaf_cell(v));
      if (now_leaf == (old_leaf_[v] != 0)) continue;
      PARCT_SHADOW_READ(analysis::record_parent_cell(c_.shadow_id(), v, 0));
      const VertexId p = c_.record(0, v).parent;
      if (p != v && try_claim(p, e_l0)) {
        PARCT_SHADOW_WRITE(cand_cell(2 * k + side));
        out[side] = p;
      }
    }
  });
  prim::pack_into(cand_, [&](std::size_t k) {
    PARCT_SHADOW_READ(cand_cell(k));
    return cand_[k] != kNoVertex;
  }, flipped_, ws_);
  if (lset_.capacity() < lset_.size() + flipped_.size()) {
    ws_.note_container_growth(
        (lset_.size() + flipped_.size() - lset_.capacity()) *
        sizeof(VertexId));
  }
  lset_.insert(lset_.end(), flipped_.begin(), flipped_.end());

  stats.initial_affected = lset_.size() + xset_.size();
  stats.phase_seconds[kPhaseInitial] += stats_since(t_begin);
  }  // initial_mode: each propagation round makes its own serial decision

  // --- change propagation (paper Fig. 3, lines 19-21) ------------------
  StatsTimePoint serial_t0{};
  bool serial_open = false;
  std::uint32_t i = 0;
  while (!lset_.empty() || !xset_.empty()) {
    propagate(i, hooks, stats, serial_t0, serial_open);
    ++i;
  }
  stats.rounds = i;
  if (serial_open) {
    stats.phase_seconds[kPhaseSerial] += stats_since(serial_t0);
  }
  stats.total_seconds = stats_since(t_begin);
  const WorkspaceStats ws_delta =
      workspace_stats_delta(ws_begin, ws_.stats());
  stats.ws_acquires = ws_delta.acquires;
  stats.ws_hits = ws_delta.hits;
  stats.ws_misses = ws_delta.misses;
  stats.ws_bytes_allocated = ws_delta.bytes_allocated;
  stats.ws_container_growths = ws_delta.container_growths;
  stats.ws_container_bytes = ws_delta.container_bytes;
  return stats;
}

void DynamicUpdater::propagate(std::uint32_t i, EventHooks* hooks,
                               UpdateStats& stats,
                               StatsTimePoint& serial_t0,
                               bool& serial_open) {
  ws_.epoch_reset();  // round boundary: no scratch lease crosses rounds
  c_.coins().ensure_rounds(i + 2);
  const std::size_t nl_count = lset_.size();
  stats.total_affected += nl_count + xset_.size();
  stats.max_affected =
      std::max<std::uint64_t>(stats.max_affected, nl_count + xset_.size());

  // One serial-vs-parallel decision per round: a sub-cutover frontier runs
  // the whole round inline (AdaptivePhase forces the sequential paths of
  // every loop and primitive below; docs/PERFORMANCE.md "Small-batch fast
  // path"). The round stats above are recorded before the decision, so
  // both paths report identical counters.
  const par::AdaptivePhase round_mode(nl_count + xset_.size());
  stats.chose_serial += round_mode.serial() ? 1 : 0;

  // Serial rounds skip per-phase attribution — at ~tens of ns per clock
  // read, a bracket per phase would dwarf a tiny round's actual work. They
  // are instead timed whole into phase_seconds[kPhaseSerial] through a
  // bracket the caller carries across consecutive serial rounds, so a
  // fully-serial update pays two clock reads total, not two per round.
  StatsTimePoint t_phase{};
  if (round_mode.serial()) {
    if (!serial_open) {
      serial_t0 = stats_now();
      serial_open = true;
    }
  } else {
    if (serial_open) {
      stats.phase_seconds[kPhaseSerial] += stats_since(serial_t0);
      serial_open = false;
    }
    t_phase = stats_now();
  }
  // Accumulates the time since the previous phase boundary into `sink`.
  auto phase_done = [&](double& sink) {
    if (round_mode.serial()) return;
    sink += stats_since(t_phase);
    t_phase = stats_now();
  };

  // Phase A+B (fused): one traversal of L marks it (and L-union-X),
  // classifies members in G, records old (F) leaf statuses at round i+1
  // before anything rewrites them (the ell of LeafStatuses, paper Fig. 4
  // line 2), and claims NL = L plus all round-i neighbours in G (Fig. 4
  // line 3). Fusing is legal because the B half reads only round-i records
  // and the claim stamps — never the mark/status/leaf arrays the A half
  // writes — so no iteration observes another's A-half effects.
  epoch_l_ = ++epoch_;
  epoch_lx_ = ++epoch_;
  epoch_nlx_ = ++epoch_;
  assign_tracked(cand_, nl_count * kWidth, kNoVertex);
  par::adaptive_for(0, xset_.size(), [&](std::size_t k) {
    PARCT_SHADOW_WRITE(mark_lx_cell(xset_[k].first));
    mark_lx_[xset_[k].first] = epoch_lx_;
  });
  par::adaptive_for(0, nl_count, [&](std::size_t k) {
    const VertexId v = lset_[k];
    PARCT_SHADOW_WRITE(mark_l_cell(v));
    mark_l_[v] = epoch_l_;
    PARCT_SHADOW_WRITE(mark_lx_cell(v));
    mark_lx_[v] = epoch_lx_;
    const Kind kind = c_.classify(i, v);
    PARCT_SHADOW_WRITE(status_g_cell(v));
    status_g_[v] = static_cast<std::uint8_t>(kind);
    if (kind == Kind::kSurvive && c_.duration(v) > i + 1) {
      PARCT_SHADOW_READ_CHILDREN(c_.shadow_id(), v, i + 1);
      PARCT_SHADOW_WRITE(old_leaf_cell(v));
      old_leaf_[v] =
          children_empty(c_.record(i + 1, v).children) ? 1 : 0;
    }
    VertexId* out = cand_.data() + k * kWidth;
    if (try_claim(v, epoch_nlx_)) {
      PARCT_SHADOW_WRITE(cand_cell(k * kWidth));
      out[0] = v;
    }
    PARCT_SHADOW_READ_REC(c_.shadow_id(), v, i);
    const RoundRecord& r = c_.record(i, v);
    if (r.parent != v && try_claim(r.parent, epoch_nlx_)) {
      PARCT_SHADOW_WRITE(cand_cell(k * kWidth + 1));
      out[1] = r.parent;
    }
    for (int s = 0; s < kMaxDegree; ++s) {
      const VertexId u = r.children[s];
      if (u != kNoVertex && try_claim(u, epoch_nlx_)) {
        PARCT_SHADOW_WRITE(cand_cell(k * kWidth + 2 + s));
        out[2 + s] = u;
      }
    }
  });
  phase_done(stats.phase_seconds[kPhaseMark]);

  prim::pack_into(cand_, [&](std::size_t k) {
    PARCT_SHADOW_READ(cand_cell(k));
    return cand_[k] != kNoVertex;
  }, nl_, ws_);
  stats.total_neighborhood += nl_.size();
  phase_done(stats.phase_seconds[kPhaseNeighborhood]);

  // Phase C: erase round-(i+1) edges incident on *affected* vertices
  // (L union X; the paper's "delete all edges which are incident upon an
  // affected vertex"). Edges between two unaffected vertices are identical
  // in F and G (Lemma 1) and are kept — crucially, such an edge's creator
  // (e.g. an unaffected compressing vertex) may lie outside NL and would
  // never re-promote it. Members of L that survive in G but are already
  // dead in F get a fresh blank record.
  par::adaptive_for(0, nl_.size(), [&](std::size_t k) {
    const VertexId v = nl_[k];
    if (c_.duration(v) > i + 1) {
      RoundRecord& r = c_.record_mut(i + 1, v);
      PARCT_SHADOW_READ(
          analysis::record_parent_cell(c_.shadow_id(), v, i + 1));
      if (r.parent != v && (in_lx(r.parent) || in_lx(v))) {
        PARCT_SHADOW_WRITE(
            analysis::record_parent_cell(c_.shadow_id(), v, i + 1));
        r.parent = v;
        r.parent_slot = 0;
      }
      for (int s = 0; s < kMaxDegree; ++s) {
        PARCT_SHADOW_READ(analysis::record_child_cell(
            c_.shadow_id(), v, i + 1, static_cast<std::uint32_t>(s)));
        if (r.children[s] != kNoVertex &&
            (in_lx(r.children[s]) || in_lx(v))) {
          PARCT_SHADOW_WRITE(analysis::record_child_cell(
              c_.shadow_id(), v, i + 1, static_cast<std::uint32_t>(s)));
          r.children[s] = kNoVertex;
        }
      }
    } else if (in_l(v)) {
      PARCT_SHADOW_READ(status_g_cell(v));
      if (static_cast<Kind>(status_g_[v]) == Kind::kSurvive) {
        c_.ensure_round(v, i + 1);
        PARCT_SHADOW_WRITE_REC(c_.shadow_id(), v, i + 1);
        c_.record_mut(i + 1, v) = RoundRecord{v, 0, kEmptyChildren};
      }
    }
  });
  phase_done(stats.phase_seconds[kPhaseErase]);

  // Phase D: re-promote edges for NL (PromoteEdges over the affected
  // region and its fringe — the paper's "we also have to promote edges
  // incident upon any neighbor of an affected vertex"). Unaffected NL
  // members redo exactly what F did (Lemma 2), so their writes are
  // idempotent re-executions.
  par::adaptive_for(0, nl_.size(), [&](std::size_t k) {
    const VertexId v = nl_[k];
    const Kind kind = kind_of(i, v);
    PARCT_SHADOW_READ_REC(c_.shadow_id(), v, i);
    const RoundRecord& r = c_.record(i, v);
    switch (kind) {
      case Kind::kSurvive: {
        if (hooks) hooks->on_vertex_persist(i, v);
        if (r.parent != v && survives(i, r.parent)) {
          PARCT_SHADOW_WRITE(analysis::record_child_cell(
              c_.shadow_id(), r.parent, i + 1, r.parent_slot));
          c_.record_mut(i + 1, r.parent).children[r.parent_slot] = v;
          if (hooks) hooks->on_edge_persist(i, v, r.parent);
        }
        for (int s = 0; s < kMaxDegree; ++s) {
          const VertexId u = r.children[s];
          if (u == kNoVertex || !survives(i, u)) continue;
          PARCT_SHADOW_WRITE(
              analysis::record_parent_cell(c_.shadow_id(), u, i + 1));
          RoundRecord& ru = c_.record_mut(i + 1, u);
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
        const VertexId u = only_child(r.children);
        PARCT_SHADOW_WRITE(analysis::record_child_cell(
            c_.shadow_id(), r.parent, i + 1, r.parent_slot));
        c_.record_mut(i + 1, r.parent).children[r.parent_slot] = u;
        PARCT_SHADOW_WRITE(
            analysis::record_parent_cell(c_.shadow_id(), u, i + 1));
        RoundRecord& ru = c_.record_mut(i + 1, u);
        ru.parent = r.parent;
        ru.parent_slot = r.parent_slot;
        if (hooks) hooks->on_compress(i, v, u, r.parent);
        break;
      }
    }
  });
  phase_done(stats.phase_seconds[kPhasePromote]);

  // Phase E+F (fused): Spread (Fig. 4 lines 20-31) builds the next round's
  // L; the old standalone Phase E (new G leaf statuses at round i+1, the
  // ell' of Fig. 4) is folded into case (d) below — the only consumer of
  // new_leaf_, and its guard (kSurvive with D[v] > i+1) is exactly E's
  // write condition. Each iteration computes and compares its own vertex's
  // statuses, so the fusion removes one full frontier traversal without
  // introducing any cross-iteration read of another's write.
  //  (a) a contracting member affects its round-i G-neighbours (which all
  //      survive round i — rake/compress neighbours cannot contract
  //      simultaneously);
  //  (b) survivors stay affected;
  //  (c) a survivor that dies in F exactly this round (D[v] = i+1) affects
  //      its round-(i+1) G-neighbours;
  //  (d) a survivor alive in both forests whose leaf status differs
  //      affects its round-(i+1) parent.
  const std::uint64_t e_next = ++epoch_;
  assign_tracked(cand_, nl_count * kWidth, kNoVertex);
  par::adaptive_for(0, nl_count, [&](std::size_t k) {
    const VertexId v = lset_[k];
    VertexId* out = cand_.data() + k * kWidth;
    PARCT_SHADOW_READ(status_g_cell(v));
    if (static_cast<Kind>(status_g_[v]) == Kind::kSurvive) {
      if (try_claim(v, e_next)) {  // (b)
        PARCT_SHADOW_WRITE(cand_cell(k * kWidth));
        out[0] = v;
      }
      const std::uint32_t dur_f = c_.duration(v);
      if (dur_f == i + 1) {  // (c)
        PARCT_SHADOW_READ_REC(c_.shadow_id(), v, i + 1);
        const RoundRecord& r1 = c_.record(i + 1, v);
        if (r1.parent != v && try_claim(r1.parent, e_next)) {
          PARCT_SHADOW_WRITE(cand_cell(k * kWidth + 1));
          out[1] = r1.parent;
        }
        for (int s = 0; s < kMaxDegree; ++s) {
          const VertexId u = r1.children[s];
          if (u != kNoVertex && try_claim(u, e_next)) {
            PARCT_SHADOW_WRITE(cand_cell(k * kWidth + 2 + s));
            out[2 + s] = u;
          }
        }
      } else if (dur_f > i + 1) {  // (d), with E's ell' computed in place
        PARCT_SHADOW_READ_CHILDREN(c_.shadow_id(), v, i + 1);
        PARCT_SHADOW_WRITE(new_leaf_cell(v));
        new_leaf_[v] =
            children_empty(c_.record(i + 1, v).children) ? 1 : 0;
        PARCT_SHADOW_READ(old_leaf_cell(v));
        if (new_leaf_[v] != old_leaf_[v]) {
          PARCT_SHADOW_READ(
              analysis::record_parent_cell(c_.shadow_id(), v, i + 1));
          const VertexId p = c_.record(i + 1, v).parent;
          if (p != v && try_claim(p, e_next)) {
            PARCT_SHADOW_WRITE(cand_cell(k * kWidth + 1));
            out[1] = p;
          }
        }
      }
    } else {  // (a)
      PARCT_SHADOW_READ_REC(c_.shadow_id(), v, i);
      const RoundRecord& r = c_.record(i, v);
      if (r.parent != v && try_claim(r.parent, e_next)) {
        PARCT_SHADOW_WRITE(cand_cell(k * kWidth + 1));
        out[1] = r.parent;
      }
      for (int s = 0; s < kMaxDegree; ++s) {
        const VertexId u = r.children[s];
        if (u != kNoVertex && try_claim(u, e_next)) {
          PARCT_SHADOW_WRITE(cand_cell(k * kWidth + 2 + s));
          out[2 + s] = u;
        }
      }
    }
  });
  prim::pack_into(cand_, [&](std::size_t k) {
    PARCT_SHADOW_READ(cand_cell(k));
    return cand_[k] != kNoVertex;
  }, next_l_, ws_);
  phase_done(stats.phase_seconds[kPhaseSpread]);

  // Phase G: X bookkeeping (Fig. 3 line 18, Fig. 4 lines on X): members of
  // L that contract in G but are still alive in F join X with their G
  // death round; vertices now dead in both forests get their final
  // durations. Sequential: O(|L| + |X|). xset_ is rebuilt *in place* — a
  // write-index compaction of the survivors (the write cursor never passes
  // the read cursor) followed by appends for L's contractors — so the
  // buffer's capacity carries over round to round.
  std::size_t xw = 0;
  for (std::size_t k = 0; k < xset_.size(); ++k) {
    const auto [v, j] = xset_[k];
    if (c_.duration(v) > i + 1) {
      xset_[xw++] = {v, j};
    } else {
      c_.set_duration(v, j);
      c_.truncate_to_duration(v);
    }
  }
  xset_.resize(xw);
  const std::size_t x_cap = xset_.capacity();
  for (std::size_t k = 0; k < nl_count; ++k) {
    const VertexId v = lset_[k];
    if (static_cast<Kind>(status_g_[v]) == Kind::kSurvive) continue;
    if (c_.duration(v) > i + 1) {
      xset_.push_back({v, i + 1});
    } else {
      c_.set_duration(v, i + 1);
      c_.truncate_to_duration(v);
    }
  }
  if (xset_.capacity() != x_cap) {
    ws_.note_container_growth((xset_.capacity() - x_cap) *
                              sizeof(xset_[0]));
  }

  phase_done(stats.phase_seconds[kPhaseX]);
  // Serial rounds leave their kPhaseSerial bracket open — the next
  // non-serial round or apply() itself closes it.

  // Swap, never move-assign: lset_'s old buffer becomes next round's
  // next_l_ destination, so both capacities survive.
  std::swap(lset_, next_l_);
}

UpdateStats modify_contraction(ContractionForest& c,
                               const forest::ChangeSet& m,
                               EventHooks* hooks) {
  DynamicUpdater updater(c);
  return updater.apply(m, hooks);
}

}  // namespace parct::contract
