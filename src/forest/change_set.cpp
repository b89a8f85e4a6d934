#include "forest/change_set.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

#include "forest/validation.hpp"

namespace parct::forest {

namespace {

struct EdgeHash {
  std::size_t operator()(const Edge& e) const {
    return (static_cast<std::size_t>(e.child) << 32) ^ e.parent;
  }
};

}  // namespace

std::optional<std::string> check_change_set(const Forest& f,
                                            const ChangeSet& m) {
  std::unordered_set<VertexId> vminus(m.remove_vertices.begin(),
                                      m.remove_vertices.end());
  std::unordered_set<VertexId> vplus(m.add_vertices.begin(),
                                     m.add_vertices.end());
  std::unordered_set<Edge, EdgeHash> eminus(m.remove_edges.begin(),
                                            m.remove_edges.end());
  std::unordered_set<Edge, EdgeHash> eplus(m.add_edges.begin(),
                                           m.add_edges.end());
  if (vminus.size() != m.remove_vertices.size()) {
    return "duplicate vertex in V-";
  }
  if (vplus.size() != m.add_vertices.size()) return "duplicate vertex in V+";
  if (eminus.size() != m.remove_edges.size()) return "duplicate edge in E-";
  if (eplus.size() != m.add_edges.size()) return "duplicate edge in E+";

  for (VertexId v : vminus) {
    if (v >= f.capacity() || !f.present(v)) return "V- vertex not in forest";
    if (vplus.count(v)) return "vertex in both V- and V+";
    // Every incident edge must be explicitly deleted.
    if (!f.is_root(v) && !eminus.count({v, f.parent(v)})) {
      return "V- vertex keeps its parent edge (must be in E-)";
    }
    for (VertexId u : f.children(v)) {
      if (u != kNoVertex && !eminus.count({u, v})) {
        return "V- vertex keeps a child edge (must be in E-)";
      }
    }
  }
  const std::size_t id_limit = vplus_id_limit(f.capacity(), vplus.size());
  for (VertexId v : vplus) {
    // kNoVertex is the empty-slot sentinel, never an id; applying it
    // would grow the universe to 2^32.
    if (v == kNoVertex) return "V+ vertex is the kNoVertex sentinel";
    if (v >= id_limit) return "V+ vertex id far beyond the capacity";
    if (v < f.capacity() && f.present(v)) return "V+ vertex already present";
  }
  // Edge children may lie beyond the universe (untrusted ids, or V+
  // vertices that grow it); Forest::has_edge indexes without a check.
  auto in_forest = [&](const Edge& e) {
    return e.child < f.capacity() && f.has_edge(e.child, e.parent);
  };
  for (const Edge& e : eminus) {
    if (!in_forest(e)) return "E- edge not in forest";
  }
  auto endpoint_exists = [&](VertexId v) {
    return vplus.count(v) != 0 ||
           (v < f.capacity() && f.present(v) && vminus.count(v) == 0);
  };
  std::unordered_set<VertexId> eplus_children;
  for (const Edge& e : eplus) {
    if (e.child == e.parent) return "E+ self-loop";
    // An edge may be deleted and re-inserted within one batch (E- ∩ E+):
    // the deletion happens first, so the insertion sees it absent.
    if (in_forest(e) && !eminus.count(e)) {
      return "E+ edge already in forest";
    }
    if (!endpoint_exists(e.child) || !endpoint_exists(e.parent)) {
      return "E+ edge endpoint absent after edit";
    }
    if (!eplus_children.insert(e.child).second) {
      return "E+ gives a vertex two parents";
    }
    // The child must be parentless once E- is applied.
    if (e.child < f.capacity() && f.present(e.child) &&
        !f.is_root(e.child) && !eminus.count({e.child, f.parent(e.child)})) {
      return "E+ child already has a parent not deleted by E-";
    }
  }
  // Structural check: apply and validate the result. Degree-bound
  // violations surface as exceptions from Forest::link.
  try {
    Forest g = apply_change_set(f, m);
    if (auto err = check_forest(g)) return "edited graph invalid: " + *err;
  } catch (const std::exception& e) {
    return std::string("edited graph invalid: ") + e.what();
  }
  return std::nullopt;
}

Forest apply_change_set(const Forest& f, const ChangeSet& m) {
  // Grow the universe if V+ introduces larger ids.
  std::size_t cap = f.capacity();
  for (VertexId v : m.add_vertices) {
    cap = std::max<std::size_t>(cap, static_cast<std::size_t>(v) + 1);
  }
  Forest g(cap, f.degree_bound(), 0);
  for (VertexId v = 0; v < f.capacity(); ++v) {
    if (f.present(v)) g.add_vertex(v);
  }
  for (const Edge& e : f.edges()) g.link(e.child, e.parent);

  for (const Edge& e : m.remove_edges) g.cut(e.child);
  for (VertexId v : m.remove_vertices) g.remove_vertex(v);
  for (VertexId v : m.add_vertices) g.add_vertex(v);
  for (const Edge& e : m.add_edges) g.link(e.child, e.parent);
  return g;
}

namespace {

// Guard against corrupt counts: no real batch approaches this, and the
// durability WAL frames each record with a length + CRC, so anything
// larger is stream corruption, not data.
constexpr std::uint64_t kMaxChangeSetElems = 1ull << 32;

template <typename T>
void put(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T get(std::istream& in) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw std::runtime_error("parct::load_change_set: truncated");
  return value;
}

void read_vertices(std::istream& in, std::uint64_t n,
                   std::vector<VertexId>& out) {
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(get<VertexId>(in));
}

void read_edges(std::istream& in, std::uint64_t n, std::vector<Edge>& out) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const VertexId child = get<VertexId>(in);
    const VertexId parent = get<VertexId>(in);
    out.push_back({child, parent});
  }
}

}  // namespace

void save_change_set(const ChangeSet& m, std::ostream& out) {
  put(out, static_cast<std::uint64_t>(m.remove_vertices.size()));
  put(out, static_cast<std::uint64_t>(m.remove_edges.size()));
  put(out, static_cast<std::uint64_t>(m.add_vertices.size()));
  put(out, static_cast<std::uint64_t>(m.add_edges.size()));
  for (VertexId v : m.remove_vertices) put(out, v);
  for (const Edge& e : m.remove_edges) {
    put(out, e.child);
    put(out, e.parent);
  }
  for (VertexId v : m.add_vertices) put(out, v);
  for (const Edge& e : m.add_edges) {
    put(out, e.child);
    put(out, e.parent);
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("parct::save_change_set: stream write failed");
  }
}

ChangeSet load_change_set(std::istream& in) {
  const std::uint64_t nvm = get<std::uint64_t>(in);
  const std::uint64_t nem = get<std::uint64_t>(in);
  const std::uint64_t nvp = get<std::uint64_t>(in);
  const std::uint64_t nep = get<std::uint64_t>(in);
  if (nvm > kMaxChangeSetElems || nem > kMaxChangeSetElems ||
      nvp > kMaxChangeSetElems || nep > kMaxChangeSetElems) {
    throw std::runtime_error("parct::load_change_set: count exceeds bound");
  }
  // push_back-grown (geometric capacity), never reserved from the
  // untrusted counts: truncation surfaces before memory is committed.
  ChangeSet m;
  read_vertices(in, nvm, m.remove_vertices);
  read_edges(in, nem, m.remove_edges);
  read_vertices(in, nvp, m.add_vertices);
  read_edges(in, nep, m.add_edges);
  return m;
}

}  // namespace parct::forest
