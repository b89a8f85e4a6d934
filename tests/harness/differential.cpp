#include "harness/differential.hpp"

#include <cstdlib>
#include <map>
#include <vector>

#include "analysis/sp_bags.hpp"
#include "baseline/euler_tour_tree.hpp"
#include "baseline/link_cut_tree.hpp"
#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "contraction/validate.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/scheduler.hpp"
#include "rc/path_aggregate.hpp"
#include "rc/rc_forest.hpp"
#include "rc/subtree_aggregate.hpp"
#include "rc/tree_aggregate.hpp"

namespace parct::harness {

namespace {

using contract::ContractionForest;
using forest::Forest;
using hashing::SplitMix64;

std::string vstr(VertexId v) { return std::to_string(v); }

/// Deterministic corruption of one round record — the injected fault the
/// harness must catch (and a replay must reproduce).
void corrupt_one_record(ContractionForest& c, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (int tries = 0; tries < 4096; ++tries) {
    const VertexId v =
        static_cast<VertexId>(rng.next_below(c.capacity()));
    if (c.duration(v) == 0) continue;
    const std::uint32_t r = c.duration(v) - 1;
    contract::RoundRecord& rec = c.record_mut(r, v);
    rec.parent = rec.parent == v
                     ? (v + 1 < c.capacity() ? v + 1 : (v > 0 ? v - 1 : v))
                     : v;
    return;
  }
}

/// Brute-force number of vertices in v's tree (walk up, then flood down).
long brute_tree_size(const Forest& f, VertexId v) {
  std::vector<VertexId> stack{forest::root_of(f, v)};
  long count = 0;
  while (!stack.empty()) {
    const VertexId x = stack.back();
    stack.pop_back();
    ++count;
    for (VertexId u : f.children(x)) {
      if (u != kNoVertex) stack.push_back(u);
    }
  }
  return count;
}

long brute_subtree_sum(const Forest& f, const std::vector<long>& w,
                       VertexId v) {
  std::vector<VertexId> stack{v};
  long acc = 0;
  while (!stack.empty()) {
    const VertexId x = stack.back();
    stack.pop_back();
    acc += w[x];
    for (VertexId u : f.children(x)) {
      if (u != kNoVertex) stack.push_back(u);
    }
  }
  return acc;
}

RunResult run_trace_impl(const Trace& t, const RunOptions& opts) {
  RunResult res;
  par::scheduler::initialize(t.num_workers == 0 ? 1 : t.num_workers,
                             t.steal_seed);

  Forest cur = t.initial;
  const std::size_t cap = cur.capacity();
  ContractionForest c(cap, t.degree_bound, t.contraction_seed);
  rc::PathAggregate<long, rc::PathPlus> path(c, 0);
  rc::SubtreeAggregate<long, rc::PathPlus> subtree(c, 0);
  contract::MultiHooks hooks{&path, &subtree};

  baseline::LinkCutTree lct(cap);
  baseline::EulerTourTree ett(cap, t.ett_seed);
  std::map<VertexId, long> edge_w;
  std::vector<long> vertex_w(cap, 0);

  for (const auto& [v, w] : t.initial_vertex_weights) {
    vertex_w[v] = w;
    subtree.stage_vertex_weight(v, w);
    ett.set_weight(v, w);
  }
  for (const auto& [v, w] : t.initial_edge_weights) {
    edge_w[v] = w;
    path.stage_edge_weight(v, w);
  }
  contract::construct(c, cur, &hooks);
  contract::DynamicUpdater updater(c);
  for (const Edge& e : cur.edges()) {
    lct.link(e.child, e.parent);
    ett.link(e.child, e.parent);
  }

  auto fail = [&](int step, std::string msg) {
    res.ok = false;
    res.failed_step = step;
    res.failure = std::move(msg);
  };

  auto check_scratch = [&](int step) {
    ContractionForest oracle(cur.capacity(), t.degree_bound, c.seed());
    contract::construct(oracle, cur);
    if (auto diff = contract::structural_diff(c, oracle)) {
      fail(step, "structural mismatch vs from-scratch oracle: " + *diff);
      return false;
    }
    return true;
  };

  const int last = static_cast<int>(t.steps.size()) - 1;
  for (int s = 0; s <= last; ++s) {
    const TraceStep& step = t.steps[s];
    const forest::ChangeSet& m = step.batch;
    if (m.empty() || forest::check_change_set(cur, m).has_value()) {
      // Shrinking can leave steps invalid against the evolved mirror;
      // skipping them deterministically keeps every sub-trace executable.
      ++res.steps_skipped;
      continue;
    }

    for (const auto& [v, w] : step.edge_weights) {
      path.stage_edge_weight(v, w);
    }
    for (const auto& [v, w] : step.vertex_weights) {
      subtree.stage_vertex_weight(v, w);
      ett.set_weight(v, w);
      vertex_w[v] = w;
    }
    updater.apply(m, &hooks);

    for (const Edge& e : m.remove_edges) {
      lct.cut(e.child);
      ett.cut(e.child);
      edge_w.erase(e.child);
    }
    for (const Edge& e : m.add_edges) {
      lct.link(e.child, e.parent);
      ett.link(e.child, e.parent);
    }
    cur = forest::apply_change_set(cur, m);
    // Weight staging wins over the erase above: a batch may delete and
    // re-insert an edge for the same child.
    for (const auto& [v, w] : step.edge_weights) edge_w[v] = w;
    ++res.steps_applied;
    res.ops_applied += m.size();

    if (s == t.corrupt_step) {
      corrupt_one_record(c, t.corrupt_seed);
    }

    // --- cross-checks --------------------------------------------------
    const bool scratch_due =
        s == t.corrupt_step || s == last ||
        (opts.check_scratch_every > 0 &&
         (s + 1) % opts.check_scratch_every == 0);
    if (scratch_due && !check_scratch(s)) return res;

    if (opts.queries_per_step > 0) {
      rc::RCForest rcf(c);
      rc::TreeAggregate<long> sizes(rcf, std::vector<long>(cap, 1));
      SplitMix64 qrng(hashing::mix64(
          t.master_seed ^ (0x9E3779B97F4A7C15ull * (s + 1))));
      for (int q = 0; q < opts.queries_per_step; ++q) {
        const VertexId a = static_cast<VertexId>(qrng.next_below(cap));
        const VertexId b = static_cast<VertexId>(qrng.next_below(cap));
        if (!cur.present(a) || !cur.present(b)) continue;
        const VertexId root = forest::root_of(cur, a);
        if (rcf.root(a) != root) {
          fail(s, "root(" + vstr(a) + ") = " + vstr(rcf.root(a)) +
                      ", forest says " + vstr(root));
          return res;
        }
        if (lct.find_root(a) != root) {
          fail(s, "LCT root(" + vstr(a) + ") = " + vstr(lct.find_root(a)) +
                      ", forest says " + vstr(root));
          return res;
        }
        if (rcf.connected(a, b) != ett.connected(a, b)) {
          fail(s, "connected(" + vstr(a) + "," + vstr(b) +
                      "): structure says " +
                      (rcf.connected(a, b) ? "yes" : "no") +
                      ", ETT disagrees");
          return res;
        }
        const long tsize = brute_tree_size(cur, a);
        if (sizes.tree_weight(a) != tsize) {
          fail(s, "tree_weight(" + vstr(a) + ") = " +
                      std::to_string(sizes.tree_weight(a)) + ", brute " +
                      std::to_string(tsize));
          return res;
        }
        if (static_cast<long>(ett.component_size(a)) != tsize) {
          fail(s, "ETT component_size(" + vstr(a) + ") = " +
                      std::to_string(ett.component_size(a)) + ", brute " +
                      std::to_string(tsize));
          return res;
        }
        long pbrute = 0;
        for (VertexId x = a; !cur.is_root(x); x = cur.parent(x)) {
          pbrute += edge_w.at(x);
        }
        if (path.path_to_root(a) != pbrute) {
          fail(s, "path_to_root(" + vstr(a) + ") = " +
                      std::to_string(path.path_to_root(a)) + ", brute " +
                      std::to_string(pbrute));
          return res;
        }
        const long sbrute = brute_subtree_sum(cur, vertex_w, a);
        if (subtree.subtree_sum(a) != sbrute) {
          fail(s, "subtree_sum(" + vstr(a) + ") = " +
                      std::to_string(subtree.subtree_sum(a)) + ", brute " +
                      std::to_string(sbrute));
          return res;
        }
        if (ett.subtree_sum(a) != sbrute) {
          fail(s, "ETT subtree_sum(" + vstr(a) + ") = " +
                      std::to_string(ett.subtree_sum(a)) + ", brute " +
                      std::to_string(sbrute));
          return res;
        }
      }
    }
  }

  if (res.ok && opts.check_scratch_every == 0 && last >= 0) {
    if (!check_scratch(last)) return res;
  }
  if (res.ok && opts.validate_final) {
    if (auto err = contract::check_valid(c, cur)) {
      fail(last, "independent re-simulation: " + *err);
      return res;
    }
  }
  return res;
}

}  // namespace

// Applies RunOptions::serial_cutover for the duration of a run and
// restores the built-in value afterwards.
class CutoverOverride {
 public:
  explicit CutoverOverride(const std::optional<std::size_t>& cutover)
      : active_(cutover.has_value()) {
    if (active_) par::set_serial_cutover(*cutover);
  }
  ~CutoverOverride() {
    if (active_) par::clear_serial_cutover();
  }
  CutoverOverride(const CutoverOverride&) = delete;
  CutoverOverride& operator=(const CutoverOverride&) = delete;

 private:
  bool active_;
};

RunResult run_trace(const Trace& t, const RunOptions& opts) {
  const CutoverOverride cutover(opts.serial_cutover);
  if (opts.race_detect) {
#if PARCT_RACE_DETECT
    // One session for the whole run: construct, every update, and every
    // from-scratch oracle all execute serially under the detector, so a
    // race anywhere in the trace's execution is caught deterministically.
    analysis::spbags::Session session(analysis::spbags::OnRace::kThrow);
    try {
      return run_trace_impl(t, opts);
    } catch (const analysis::spbags::DeterminacyRace& e) {
      RunResult res;
      res.ok = false;
      res.failure = e.what();
      return res;
    }
#else
    RunResult res;
    res.ok = false;
    res.failure =
        "race detection requested, but this binary was built without "
        "-DPARCT_RACE_DETECT=ON";
    return res;
#endif
  }
  return run_trace_impl(t, opts);
}

std::string dump_replay(const Trace& t) {
  const char* dir = std::getenv("PARCT_REPLAY_DIR");
  const std::string path = std::string(dir != nullptr ? dir : ".") +
                           "/parct-replay-seed" +
                           std::to_string(t.master_seed) + ".txt";
  save_trace_file(t, path);
  return path;
}

}  // namespace parct::harness
