#include "rc/validate_batch.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace parct::rc {

namespace {

bool edge_less(const Edge& a, const Edge& b) {
  return a.child != b.child ? a.child < b.child : a.parent < b.parent;
}

template <typename T>
bool has_duplicate(const std::vector<T>& sorted) {
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

ChangeSetVerdict invalid(std::string why) { return {std::move(why), false}; }

}  // namespace

ChangeSetVerdict validate_change_set(const RCForest& rcf,
                                     const forest::ChangeSet& m) {
  const contract::ContractionForest& c = rcf.structure();
  const std::size_t cap = c.capacity();
  // A vertex is in the forest iff it is alive in round 0; its round-0
  // record holds its current parent (itself for a root) and children.
  auto present = [&](VertexId v) { return v < cap && c.duration(v) > 0; };

  std::vector<VertexId> vminus = m.remove_vertices;
  std::vector<VertexId> vplus = m.add_vertices;
  std::vector<Edge> eminus = m.remove_edges;
  std::vector<Edge> eplus = m.add_edges;
  std::sort(vminus.begin(), vminus.end());
  std::sort(vplus.begin(), vplus.end());
  std::sort(eminus.begin(), eminus.end(), edge_less);
  std::sort(eplus.begin(), eplus.end(), edge_less);
  if (has_duplicate(vminus)) return invalid("duplicate vertex in V-");
  if (has_duplicate(vplus)) return invalid("duplicate vertex in V+");
  if (has_duplicate(eminus)) return invalid("duplicate edge in E-");
  if (has_duplicate(eplus)) return invalid("duplicate edge in E+");

  auto in_vminus = [&](VertexId v) {
    return std::binary_search(vminus.begin(), vminus.end(), v);
  };
  auto in_vplus = [&](VertexId v) {
    return std::binary_search(vplus.begin(), vplus.end(), v);
  };
  auto in_eminus = [&](VertexId child, VertexId parent) {
    return std::binary_search(eminus.begin(), eminus.end(),
                              Edge{child, parent}, edge_less);
  };

  // V+ ids must be fresh. kNoVertex is the empty-slot sentinel, never an
  // id: admitting it would grow the universe to 2^32.
  for (VertexId v : vplus) {
    if (v == kNoVertex) return invalid("V+ vertex is the kNoVertex sentinel");
    if (present(v)) return invalid("V+ vertex already present");
  }
  // A V- vertex is present (so not in V+) and E- cuts all its edges.
  for (VertexId v : vminus) {
    if (!present(v)) return invalid("V- vertex not in forest");
    const contract::RoundRecord& r = c.record(0, v);
    if (r.parent != v && !in_eminus(v, r.parent)) {
      return invalid("V- vertex keeps its parent edge (must be in E-)");
    }
    for (VertexId u : r.children) {
      if (u != kNoVertex && !in_eminus(u, v)) {
        return invalid("V- vertex keeps a child edge (must be in E-)");
      }
    }
  }
  for (const Edge& e : eminus) {
    if (!present(e.child) || e.child == e.parent ||
        c.record(0, e.child).parent != e.parent) {
      return invalid("E- edge not in forest");
    }
  }
  auto exists_after = [&](VertexId v) {
    return in_vplus(v) || (present(v) && !in_vminus(v));
  };
  for (std::size_t i = 0; i < eplus.size(); ++i) {
    const Edge& e = eplus[i];
    if (e.child == e.parent) return invalid("E+ self-loop");
    if (!exists_after(e.child) || !exists_after(e.parent)) {
      return invalid("E+ edge endpoint absent after edit");
    }
    // Sorted by child: a repeated child is a second parent.
    if (i > 0 && eplus[i - 1].child == e.child) {
      return invalid("E+ gives a vertex two parents");
    }
    // The child must be parentless once E- is applied (this also rejects
    // an E+ edge already in the forest and not deleted by E-).
    if (present(e.child)) {
      const VertexId p = c.record(0, e.child).parent;
      if (p != e.child && !in_eminus(e.child, p)) {
        return invalid("E+ child already has a parent not deleted by E-");
      }
    }
  }

  // Degree bound per E+ parent: its round-0 children, minus those E-
  // cuts, plus its E+ children. (V- vertices are never E+ parents, and a
  // V+ parent starts with no children.)
  std::sort(eplus.begin(), eplus.end(), [](const Edge& a, const Edge& b) {
    return a.parent < b.parent;
  });
  for (std::size_t i = 0, j = 0; i < eplus.size(); i = j) {
    const VertexId p = eplus[i].parent;
    while (j < eplus.size() && eplus[j].parent == p) ++j;
    std::size_t degree = j - i;
    if (present(p)) {
      for (VertexId u : c.record(0, p).children) {
        if (u != kNoVertex && !in_eminus(u, p)) ++degree;
      }
    }
    if (degree > static_cast<std::size_t>(c.degree_bound())) {
      return invalid("E+ exceeds the degree bound");
    }
  }

  // Cycle freedom. The pre-edit edges minus E- are acyclic, so a cycle in
  // the edited graph uses E+ edges. Between consecutive E+ edges it runs
  // along pre-edit edges, hence inside one pre-edit tree; contracting
  // each pre-edit tree to a node (a V+ vertex is its own node) turns the
  // cycle into a closed trail of distinct E+ edges over those nodes.
  // Union-find adds the E+ edges one by one: if no edge ever joins two
  // nodes already in one set, the E+ edges form a forest over the nodes,
  // no closed trail exists, and the edited graph is acyclic. A collision
  // means the batch re-links inside one pre-edit tree (a bounce, or a
  // subtree moved within its tree). That may still be valid, so the exact
  // check decides.
  auto tree_of = [&](VertexId v) {
    assert(!present(v) || rcf.present(v));
    return present(v) ? rcf.root(v) : v;
  };
  std::vector<VertexId> ends(2 * eplus.size());
  for (std::size_t i = 0; i < eplus.size(); ++i) {
    ends[2 * i] = tree_of(eplus[i].child);
    ends[2 * i + 1] = tree_of(eplus[i].parent);
  }
  std::vector<VertexId> nodes = ends;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::vector<std::uint32_t> set(nodes.size());
  std::iota(set.begin(), set.end(), 0u);
  auto find = [&](VertexId node) {
    auto x = static_cast<std::uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), node) - nodes.begin());
    while (set[x] != x) {
      set[x] = set[set[x]];  // path halving
      x = set[x];
    }
    return x;
  };
  for (std::size_t i = 0; i < eplus.size(); ++i) {
    const std::uint32_t a = find(ends[2 * i]);
    const std::uint32_t b = find(ends[2 * i + 1]);
    if (a == b) {
      return {forest::check_change_set(c.extract_forest(), m), true};
    }
    set[a] = b;
  }
  return {};
}

}  // namespace parct::rc
