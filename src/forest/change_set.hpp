// ChangeSet: a batch of modifications ((V-, E-), (V+, E+)) as in the
// paper's ModifyContraction (§2.5): delete vertices V- and edges E-, then
// add vertices V+ and edges E+.
//
// Preconditions (paper §2.5): V- ⊆ V, V+ ∩ V = ∅, E- ⊆ E, E+ new edges
// (an edge of E- may reappear in E+: deletions apply first, so within one
// batch delete-then-reinsert of the same edge is legal), and the edited
// graph is again a bounded-degree forest. Every edge incident to a vertex
// of V- must appear in E-. V+ ids lie below vplus_id_limit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "forest/forest.hpp"
#include "forest/types.hpp"
#include "primitives/bytes.hpp"

namespace parct::forest {

struct ChangeSet {
  std::vector<VertexId> remove_vertices;  // V-
  std::vector<Edge> remove_edges;         // E-
  std::vector<VertexId> add_vertices;     // V+
  std::vector<Edge> add_edges;            // E+

  std::size_t size() const {
    return remove_vertices.size() + remove_edges.size() +
           add_vertices.size() + add_edges.size();
  }
  bool empty() const { return size() == 0; }

  /// Fluent builders, handy in tests and examples.
  ChangeSet& del_edge(VertexId child, VertexId parent) {
    remove_edges.push_back({child, parent});
    return *this;
  }
  ChangeSet& ins_edge(VertexId child, VertexId parent) {
    add_edges.push_back({child, parent});
    return *this;
  }
  ChangeSet& del_vertex(VertexId v) {
    remove_vertices.push_back(v);
    return *this;
  }
  ChangeSet& ins_vertex(VertexId v) {
    add_vertices.push_back(v);
    return *this;
  }
};

/// Exclusive upper bound on the V+ ids of a batch adding `added` vertices
/// to a universe of `capacity` ids: one batch may at most double the
/// universe, plus its own new vertices, where a universe below 1024 ids
/// counts as 1024. Applying a larger id would grow every per-vertex table
/// up to it (2^31 asks for tens of GiB), so check_change_set and
/// rc::validate_change_set both reject it.
inline std::size_t vplus_id_limit(std::size_t capacity, std::size_t added) {
  return 2 * std::max<std::size_t>(capacity, 1024) + added;
}

/// Checks all ChangeSet preconditions against `f`, including that applying
/// the batch yields an acyclic bounded-degree forest. Returns an error
/// description, or nullopt if valid.
std::optional<std::string> check_change_set(const Forest& f,
                                            const ChangeSet& m);

/// Applies `m` to a copy of `f` and returns the edited forest. Asserts the
/// preconditions in debug builds (use check_change_set for full checking).
Forest apply_change_set(const Forest& f, const ChangeSet& m);

/// Binary encoding of a ChangeSet (little-endian hosts), appended to
/// `out`: four u64 element counts (V-, E-, V+, E+) followed by the element
/// payloads. This is the record body of the durability write-ahead log
/// (docs/DURABILITY.md); a caller that reuses `out` encodes without
/// allocating once its capacity is there.
void save_change_set(const ChangeSet& m, std::string& out);

/// Inverse of save_change_set, leaving `in` just past the batch. Each
/// count is checked against the bytes that remain before its elements
/// are allocated, so corrupt counts cannot drive a huge allocation.
/// Throws std::runtime_error on truncation or on counts beyond a sane
/// bound.
ChangeSet load_change_set(prim::ByteReader& in);

}  // namespace parct::forest
