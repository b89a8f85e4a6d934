// Tests for ChangeSet validation and application.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "alloc_probe.hpp"
#include "forest/change_set.hpp"
#include "forest/tree_builder.hpp"
#include "forest/validation.hpp"
#include "primitives/bytes.hpp"

namespace parct::forest {
namespace {

Forest small_tree() {
  // 0 <- 1 <- 2, 0 <- 3; vertex 4 isolated; capacity 8 (5..7 absent).
  Forest f(8, 4, 5);
  f.link(1, 0);
  f.link(2, 1);
  f.link(3, 0);
  return f;
}

TEST(ChangeSet, EmptyIsValid) {
  Forest f = small_tree();
  EXPECT_FALSE(check_change_set(f, ChangeSet{}).has_value());
}

TEST(ChangeSet, ValidEdgeOps) {
  Forest f = small_tree();
  ChangeSet m;
  m.del_edge(2, 1).ins_edge(2, 3).ins_edge(4, 2);
  EXPECT_FALSE(check_change_set(f, m).has_value());
  Forest g = apply_change_set(f, m);
  EXPECT_EQ(g.parent(2), 3u);
  EXPECT_EQ(g.parent(4), 2u);
  EXPECT_FALSE(check_forest(g).has_value());
}

TEST(ChangeSet, ValidVertexOps) {
  Forest f = small_tree();
  ChangeSet m;
  m.del_vertex(4);                       // isolated: ok without edges
  m.ins_vertex(6).ins_edge(6, 3);        // new leaf under 3
  EXPECT_FALSE(check_change_set(f, m).has_value());
  Forest g = apply_change_set(f, m);
  EXPECT_FALSE(g.present(4));
  EXPECT_TRUE(g.present(6));
  EXPECT_EQ(g.parent(6), 3u);
}

TEST(ChangeSet, RejectsCycle) {
  Forest f = small_tree();
  ChangeSet m;
  m.ins_edge(0, 2);  // 0 <- 1 <- 2 <- 0
  auto err = check_change_set(f, m);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("cycle"), std::string::npos);
}

TEST(ChangeSet, RejectsSecondParent) {
  Forest f = small_tree();
  ChangeSet m;
  m.ins_edge(2, 0);  // 2 already has parent 1
  EXPECT_TRUE(check_change_set(f, m).has_value());
}

TEST(ChangeSet, RejectsMissingDeleteEdge) {
  Forest f = small_tree();
  ChangeSet m;
  m.del_edge(3, 1);  // 3's parent is 0, not 1
  EXPECT_TRUE(check_change_set(f, m).has_value());
}

TEST(ChangeSet, RejectsVertexRemovalKeepingEdges) {
  Forest f = small_tree();
  ChangeSet m;
  m.del_vertex(1);  // 1 has parent edge and child edge
  EXPECT_TRUE(check_change_set(f, m).has_value());
  ChangeSet m2;
  m2.del_vertex(1).del_edge(1, 0).del_edge(2, 1);
  EXPECT_FALSE(check_change_set(f, m2).has_value());
}

TEST(ChangeSet, RejectsDuplicateEntries) {
  Forest f = small_tree();
  ChangeSet m;
  m.del_edge(2, 1).del_edge(2, 1);
  EXPECT_TRUE(check_change_set(f, m).has_value());
  ChangeSet m2;
  m2.ins_vertex(6).ins_vertex(6);
  EXPECT_TRUE(check_change_set(f, m2).has_value());
}

TEST(ChangeSet, RejectsAddingPresentVertex) {
  Forest f = small_tree();
  ChangeSet m;
  m.ins_vertex(3);
  EXPECT_TRUE(check_change_set(f, m).has_value());
}

TEST(ChangeSet, RejectsRemovingAbsentVertex) {
  Forest f = small_tree();
  ChangeSet m;
  m.del_vertex(7);
  EXPECT_TRUE(check_change_set(f, m).has_value());
}

TEST(ChangeSet, RejectsExistingInsertEdge) {
  Forest f = small_tree();
  ChangeSet m;
  m.ins_edge(1, 0);
  EXPECT_TRUE(check_change_set(f, m).has_value());
}

TEST(ChangeSet, RejectsEdgeToRemovedVertex) {
  Forest f = small_tree();
  ChangeSet m;
  m.del_vertex(4).ins_edge(3, 4);
  EXPECT_TRUE(check_change_set(f, m).has_value());
}

TEST(ChangeSet, RejectsDegreeOverflow) {
  Forest f(8, 2, 8);
  f.link(1, 0);
  f.link(2, 0);
  ChangeSet m;
  m.ins_edge(3, 0);  // 0 already has 2 children, bound is 2
  auto err = check_change_set(f, m);
  EXPECT_TRUE(err.has_value());
}

TEST(ChangeSet, ApplyGrowsUniverseForLargeIds) {
  Forest f = small_tree();
  ChangeSet m;
  m.ins_vertex(20).ins_edge(20, 0);
  Forest g = apply_change_set(f, m);
  EXPECT_GE(g.capacity(), 21u);
  EXPECT_TRUE(g.present(20));
}

TEST(ChangeSet, EdgesBeyondTheUniverseAreCheckedNotRead) {
  Forest f = small_tree();  // capacity 8
  ChangeSet grow;
  grow.ins_vertex(20).ins_vertex(23).ins_edge(23, 20).ins_edge(20, 4);
  EXPECT_FALSE(check_change_set(f, grow).has_value());
  ChangeSet bogus;
  bogus.del_edge(1000, 0);
  EXPECT_TRUE(check_change_set(f, bogus).has_value());
}

TEST(ChangeSet, RejectsNoVertexSentinelAsId) {
  // Regression: V+ = {kNoVertex} used to be rejected only because
  // apply_change_set's Forest(2^32) threw bad_alloc after zeroing 4 GiB;
  // where that copy succeeded, E+ (kNoVertex, p) would have written the
  // empty-slot sentinel into p's child array. The rule is now explicit
  // and O(1), so this test allocates nothing large.
  Forest f = small_tree();
  ChangeSet add;
  add.ins_vertex(kNoVertex);
  auto err = check_change_set(f, add);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("kNoVertex"), std::string::npos) << *err;
  ChangeSet link;
  link.ins_vertex(kNoVertex).ins_edge(kNoVertex, 0);
  EXPECT_TRUE(check_change_set(f, link).has_value());
}

TEST(ChangeSet, RejectsVPlusIdFarBeyondTheCapacity) {
  // Regression: V+ = {2^31} used to pass, and applying it grows every
  // per-vertex table to 2^31 entries. One batch may now at most double
  // the universe (of at least 1024 ids), plus its own new vertices.
  Forest f = small_tree();  // capacity 8, counted as 1024
  const auto far = static_cast<VertexId>(1u << 31);
  ChangeSet add;
  add.ins_vertex(far).ins_edge(far, 0);
  auto err = check_change_set(f, add);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("far beyond"), std::string::npos) << *err;

  const auto limit = static_cast<VertexId>(vplus_id_limit(f.capacity(), 1));
  EXPECT_EQ(limit, 2u * 1024u + 1u);
  ChangeSet at_limit;
  at_limit.ins_vertex(limit).ins_edge(limit, 0);
  EXPECT_TRUE(check_change_set(f, at_limit).has_value());
  ChangeSet below;
  below.ins_vertex(limit - 1).ins_edge(limit - 1, 0);
  EXPECT_FALSE(check_change_set(f, below).has_value());
  // Each new vertex raises the limit by one.
  ChangeSet two;
  two.ins_vertex(limit).ins_vertex(5).ins_edge(limit, 5);
  EXPECT_FALSE(check_change_set(f, two).has_value());
}

TEST(ChangeSet, SizeAccounting) {
  ChangeSet m;
  m.ins_vertex(1).del_vertex(2).ins_edge(3, 4).del_edge(5, 6);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_FALSE(m.empty());
  EXPECT_TRUE(ChangeSet{}.empty());
}

TEST(ChangeSet, BinaryRoundTrip) {
  // The WAL record body (docs/DURABILITY.md): encode/decode must be an
  // exact inverse, including empty sections and an all-empty batch.
  ChangeSet m;
  m.del_vertex(4).del_edge(2, 1).del_edge(3, 0).ins_vertex(9).ins_edge(9, 2);
  std::string bytes;
  save_change_set(m, bytes);
  prim::ByteReader in(bytes, "change_set_test");
  const ChangeSet r = load_change_set(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(r.remove_vertices, m.remove_vertices);
  EXPECT_EQ(r.add_vertices, m.add_vertices);
  ASSERT_EQ(r.remove_edges.size(), m.remove_edges.size());
  for (std::size_t i = 0; i < m.remove_edges.size(); ++i) {
    EXPECT_EQ(r.remove_edges[i].child, m.remove_edges[i].child);
    EXPECT_EQ(r.remove_edges[i].parent, m.remove_edges[i].parent);
  }
  ASSERT_EQ(r.add_edges.size(), m.add_edges.size());
  for (std::size_t i = 0; i < m.add_edges.size(); ++i) {
    EXPECT_EQ(r.add_edges[i].child, m.add_edges[i].child);
    EXPECT_EQ(r.add_edges[i].parent, m.add_edges[i].parent);
  }

  std::string empty_bytes;
  save_change_set(ChangeSet{}, empty_bytes);
  EXPECT_EQ(empty_bytes.size(), 4 * sizeof(std::uint64_t));
  prim::ByteReader empty_in(empty_bytes, "change_set_test");
  EXPECT_TRUE(load_change_set(empty_in).empty());
  EXPECT_EQ(empty_in.remaining(), 0u);

  // Encoding appends: a prefix already in the buffer is kept.
  std::string prefixed = "ab";
  save_change_set(m, prefixed);
  EXPECT_EQ(prefixed, "ab" + bytes);
}

TEST(ChangeSet, BinaryDecodeRejectsGarbage) {
  // Truncation mid-payload.
  ChangeSet m;
  m.del_vertex(1).ins_edge(5, 6).ins_edge(7, 8);
  std::string bytes;
  save_change_set(m, bytes);
  for (const std::size_t keep : {0ul, 7ul, 33ul, bytes.size() - 1}) {
    const std::string cut = bytes.substr(0, keep);
    prim::ByteReader in(cut, "change_set_test");
    EXPECT_THROW(load_change_set(in), std::runtime_error) << keep;
  }

  // Corrupt counts must be rejected before any allocation is committed —
  // a header declaring 2^56 edges is corruption, not data.
  std::string lying = bytes;
  for (int i = 0; i < 8; ++i) lying[8 + i] = static_cast<char>(0xFF);
  prim::ByteReader huge(lying, "change_set_test");
  EXPECT_THROW(load_change_set(huge), std::runtime_error);

  // A count within that bound but beyond the bytes that remain (2^30
  // edges, 8 GiB) is truncation, caught before the edges are allocated.
  std::string unbacked = bytes;
  for (int i = 0; i < 8; ++i) unbacked[8 + i] = 0;
  unbacked[8 + 3] = 0x40;
  prim::ByteReader short_in(unbacked, "change_set_test");
  const test::Allocations decode = test::allocations_during(
      [&] { EXPECT_THROW(load_change_set(short_in), std::runtime_error); });
  EXPECT_LT(decode.largest, 1024u);
}

}  // namespace
}  // namespace parct::forest
