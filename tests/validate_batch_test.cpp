// Differential test of rc::validate_change_set, the O(m log n) update
// validator BatchServer runs, against the reference
// forest::check_change_set. Inputs are every candidate batch the harness
// generators produce (including the invalid ones generate_trace
// discards) and targeted shapes: cross-tree and in-tree cycles, second
// parents, degree overflow, absent V-, ids beyond the capacity (up to
// 2^31 and at forest::vplus_id_limit), E- ∩ E+ bounces and subtree moves
// within a tree. Each candidate is judged three ways: by the reference on
// a mirror forest, by validate_change_set called directly, and by a
// BatchServer's admission through step(). All three must agree, and
// ServiceStats::validate_fallbacks must show that both the O(m log n)
// rules and the exact path decided batches.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "contraction/construct.hpp"
#include "forest/change_set.hpp"
#include "forest/validation.hpp"
#include "harness/workload.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "rc/rc_forest.hpp"
#include "rc/validate_batch.hpp"
#include "service/batch_server.hpp"
#include "test_util.hpp"

namespace parct {
namespace {

using forest::ChangeSet;
using forest::Forest;
using hashing::SplitMix64;

// One served structure, fed candidate batches. Valid ones are applied to
// the server and the mirror alike, so both keep representing one forest.
class Differential {
 public:
  Differential(const Forest& initial, std::uint64_t seed)
      : mirror_(initial),
        c_(initial.capacity(), initial.degree_bound(), seed) {
    contract::construct(c_, initial);
    rcf_ = std::make_unique<rc::RCForest>(c_);
    server_ = std::make_unique<service::BatchServer>(c_);
  }

  const Forest& mirror() const { return mirror_; }

  ::testing::AssertionResult judge(const ChangeSet& m) {
    const std::optional<std::string> ref =
        forest::check_change_set(mirror_, m);
    const rc::ChangeSetVerdict direct = rc::validate_change_set(*rcf_, m);
    if (direct.error.has_value() != ref.has_value()) {
      return ::testing::AssertionFailure()
             << "validate_change_set: "
             << (direct.error ? *direct.error : "valid")
             << (direct.exact ? " (exact path)" : "")
             << "; check_change_set: " << (ref ? *ref : "valid");
    }
    ++judged;
    if (direct.exact) ++exact;
    if (ref) ++invalid;

    service::UpdateRequest u;
    u.batch = m;
    std::future<service::UpdateResult> fut =
        server_->submit_update(std::move(u));
    if (!server_->step()) return ::testing::AssertionFailure() << "no epoch";
    try {
      fut.get();
      if (ref) {
        return ::testing::AssertionFailure()
               << "the server applied an invalid batch: " << *ref;
      }
    } catch (const std::invalid_argument& e) {
      if (!ref) {
        return ::testing::AssertionFailure()
               << "the server rejected a valid batch: " << e.what();
      }
      return ::testing::AssertionSuccess();
    }
    mirror_ = forest::apply_change_set(mirror_, m);
    rcf_->rebuild();
    return ::testing::AssertionSuccess();
  }

  // The server's counters account for every judged batch.
  void expect_counters() const {
    const service::ServiceStats s = server_->stats();
    EXPECT_EQ(s.validate_fallbacks, exact);
    EXPECT_EQ(s.updates_rejected, invalid);
    EXPECT_EQ(s.updates_applied, judged - invalid);
  }

  std::uint64_t judged = 0;
  std::uint64_t exact = 0;
  std::uint64_t invalid = 0;

 private:
  Forest mirror_;
  contract::ContractionForest c_;
  std::unique_ptr<rc::RCForest> rcf_;
  std::unique_ptr<service::BatchServer> server_;
};

class ValidateBatch : public ::testing::Test {
 protected:
  void SetUp() override { par::scheduler::initialize(2); }
  void TearDown() override { par::scheduler::initialize(1); }
};

// --- targeted shapes -----------------------------------------------------

VertexId random_present(const Forest& f, SplitMix64& rng) {
  for (int tries = 0; tries < 200; ++tries) {
    const auto v = static_cast<VertexId>(rng.next_below(f.capacity()));
    if (f.present(v)) return v;
  }
  return kNoVertex;
}

VertexId random_non_root(const Forest& f, SplitMix64& rng) {
  for (int tries = 0; tries < 200; ++tries) {
    const VertexId v = random_present(f, rng);
    if (v != kNoVertex && !f.is_root(v)) return v;
  }
  return kNoVertex;
}

// True if `u` lies in the subtree of `v` (u == v included).
bool in_subtree(const Forest& f, VertexId u, VertexId v) {
  while (u != v && !f.is_root(u)) u = f.parent(u);
  return u == v;
}

// A random present vertex of `v`'s subtree other than v, or kNoVertex.
VertexId random_descendant(const Forest& f, VertexId v, SplitMix64& rng) {
  for (int tries = 0; tries < 200; ++tries) {
    const VertexId u = random_present(f, rng);
    if (u != kNoVertex && u != v && in_subtree(f, u, v)) return u;
  }
  return kNoVertex;
}

// A present vertex outside `v`'s tree, or kNoVertex.
VertexId random_other_tree(const Forest& f, VertexId v, SplitMix64& rng) {
  const VertexId r = forest::root_of(f, v);
  for (int tries = 0; tries < 200; ++tries) {
    const VertexId u = random_present(f, rng);
    if (u != kNoVertex && forest::root_of(f, u) != r) return u;
  }
  return kNoVertex;
}

// An absent id, beyond the capacity with probability 1/2.
VertexId fresh_id(const Forest& f, SplitMix64& rng) {
  if (rng.next_bool()) {
    for (VertexId v = 0; v < f.capacity(); ++v) {
      if (!f.present(v)) return v;
    }
  }
  return static_cast<VertexId>(f.capacity() + rng.next_below(16));
}

ChangeSet targeted_candidate(const Forest& f, SplitMix64& rng) {
  ChangeSet m;
  switch (rng.next_below(16)) {
    case 0: {  // link a root under another tree (fast path)
      const VertexId v = random_present(f, rng);
      if (v == kNoVertex) break;
      const VertexId p = random_other_tree(f, v, rng);
      if (p != kNoVertex) m.ins_edge(forest::root_of(f, v), p);
      break;
    }
    case 1: {  // cross-tree cycle: each root under the other's tree
      const VertexId x1 = random_present(f, rng);
      if (x1 == kNoVertex) break;
      const VertexId x2 = random_other_tree(f, x1, rng);
      if (x2 == kNoVertex) break;
      m.ins_edge(forest::root_of(f, x1), x2)
          .ins_edge(forest::root_of(f, x2), x1);
      break;
    }
    case 2: {  // in-tree cycle: a root under its own descendant
      const VertexId v = random_non_root(f, rng);
      if (v != kNoVertex) m.ins_edge(forest::root_of(f, v), v);
      break;
    }
    case 3: {  // subtree moved into itself
      const VertexId v = random_non_root(f, rng);
      if (v == kNoVertex) break;
      const VertexId d = random_descendant(f, v, rng);
      if (d != kNoVertex) m.del_edge(v, f.parent(v)).ins_edge(v, d);
      break;
    }
    case 4: {  // second parent
      const VertexId v = random_non_root(f, rng);
      if (v == kNoVertex) break;
      const VertexId q = random_present(f, rng);
      if (q != v) m.ins_edge(v, q);
      break;
    }
    case 5: {  // degree overflow: one child more than the bound allows
      const VertexId p = random_present(f, rng);
      if (p == kNoVertex) break;
      const int need = f.degree_bound() - f.degree(p) + 1;
      VertexId id = static_cast<VertexId>(f.capacity());
      for (int i = 0; i < need; ++i, ++id) m.ins_vertex(id).ins_edge(id, p);
      if (rng.next_bool() && f.degree(p) > 0) {  // or exactly full
        for (VertexId u : f.children(p)) {
          if (u != kNoVertex) {
            m.del_edge(u, p);
            break;
          }
        }
      }
      break;
    }
    case 6:  // absent V-
      m.del_vertex(fresh_id(f, rng));
      break;
    case 7: {  // ids beyond the capacity, valid and invalid
      const VertexId id = fresh_id(f, rng);
      const VertexId p = random_present(f, rng);
      if (p == kNoVertex) break;
      // The smallest V+ id a one-vertex batch may not use, and one far
      // beyond it.
      const auto limit =
          static_cast<VertexId>(forest::vplus_id_limit(f.capacity(), 1));
      const auto far = static_cast<VertexId>(1u << 31);
      switch (rng.next_below(6)) {
        case 0: m.ins_vertex(id).ins_edge(id, p); break;
        case 1: m.ins_edge(forest::root_of(f, p), id); break;
        case 2: m.del_edge(id, p); break;
        case 3: m.ins_vertex(limit).ins_edge(limit, p); break;
        case 4: m.ins_vertex(far).ins_edge(far, p); break;
        default: m.ins_vertex(kNoVertex).ins_edge(kNoVertex, p); break;
      }
      break;
    }
    case 8: {  // E- ∩ E+ bounces (exact path)
      const std::size_t k = 1 + rng.next_below(4);
      for (std::size_t i = 0; i < k; ++i) {
        const VertexId v = random_non_root(f, rng);
        if (v == kNoVertex) break;
        m.del_edge(v, f.parent(v)).ins_edge(v, f.parent(v));
      }
      break;
    }
    case 9: {  // subtree move within its tree (exact path)
      const VertexId v = random_non_root(f, rng);
      if (v == kNoVertex) break;
      const VertexId r = forest::root_of(f, v);
      for (int tries = 0; tries < 200; ++tries) {
        const VertexId q = random_present(f, rng);
        if (q == kNoVertex || q == v || forest::root_of(f, q) != r) continue;
        m.del_edge(v, f.parent(v)).ins_edge(v, q);
        break;
      }
      break;
    }
    case 10: {  // several cuts re-linked anywhere (cycles likely)
      const std::size_t k = 1 + rng.next_below(6);
      for (std::size_t i = 0; i < k; ++i) {
        const VertexId v = random_non_root(f, rng);
        const VertexId q = random_present(f, rng);
        if (v == kNoVertex || q == kNoVertex || q == v) continue;
        m.del_edge(v, f.parent(v)).ins_edge(v, q);
      }
      break;
    }
    case 11: {  // vertex removal, with or without all its edges
      const VertexId v = random_present(f, rng);
      if (v == kNoVertex) break;
      m.del_vertex(v);
      const bool forget = rng.next_below(4) == 0;
      if (!f.is_root(v) && !(forget && rng.next_bool())) {
        m.del_edge(v, f.parent(v));
      }
      for (VertexId u : f.children(v)) {
        if (u != kNoVertex && !(forget && rng.next_bool())) m.del_edge(u, v);
      }
      break;
    }
    case 12: {  // fresh vertices linked among themselves, maybe in a loop
      const auto a = static_cast<VertexId>(f.capacity() + 1);
      const auto b = static_cast<VertexId>(f.capacity() + 2);
      m.ins_vertex(a).ins_vertex(b).ins_edge(b, a);
      if (rng.next_bool()) {
        m.ins_edge(a, b);
      } else {
        const VertexId p = random_present(f, rng);
        if (p != kNoVertex) m.ins_edge(a, p);
      }
      break;
    }
    case 13: {  // duplicate entries
      const VertexId v = random_non_root(f, rng);
      if (v == kNoVertex) break;
      if (rng.next_bool()) {
        m.del_edge(v, f.parent(v)).del_edge(v, f.parent(v));
      } else {
        const VertexId id = fresh_id(f, rng);
        m.ins_vertex(id).ins_vertex(id);
      }
      break;
    }
    case 14: {  // self-loop, or an edge to a removed vertex
      const VertexId v = random_present(f, rng);
      if (v == kNoVertex) break;
      if (rng.next_bool()) {
        m.ins_edge(v, v);
      } else if (f.is_isolated(v)) {
        const VertexId u = random_other_tree(f, v, rng);
        if (u != kNoVertex) m.del_vertex(v).ins_edge(forest::root_of(f, u), v);
      }
      break;
    }
    default: {  // a bounce plus a cross-tree link in one batch
      const VertexId v = random_non_root(f, rng);
      if (v == kNoVertex) break;
      m.del_edge(v, f.parent(v)).ins_edge(v, f.parent(v));
      const VertexId x = random_present(f, rng);
      if (x == kNoVertex) break;
      const VertexId p = random_other_tree(f, x, rng);
      if (p != kNoVertex) m.ins_edge(forest::root_of(f, x), p);
      break;
    }
  }
  return m;
}

TEST_F(ValidateBatch, TargetedShapesAgreeWithReference) {
  SplitMix64 rng(0x7A11D);
  std::uint64_t judged = 0;
  std::uint64_t exact = 0;
  std::uint64_t invalid = 0;
  constexpr int kForests = 300;
  constexpr int kCandidatesPerForest = 40;
  for (int i = 0; i < kForests; ++i) {
    const std::size_t n = 20 + rng.next_below(201);
    const auto& shape = test::kShapes[rng.next_below(std::size(test::kShapes))];
    const Forest f = shape.build(n, rng.next(), 8 + rng.next_below(24));
    Differential d(f, rng.next());
    for (int k = 0; k < kCandidatesPerForest; ++k) {
      const ChangeSet m = targeted_candidate(d.mirror(), rng);
      if (m.empty()) continue;
      ASSERT_TRUE(d.judge(m)) << shape.name << " forest " << i
                              << ", candidate " << k;
    }
    d.expect_counters();
    judged += d.judged;
    exact += d.exact;
    invalid += d.invalid;
  }
  std::cout << judged << " targeted batches: " << invalid << " invalid, "
            << exact << " decided by the exact path\n";
  EXPECT_GE(judged, 10000u);
  EXPECT_GT(exact, 0u) << "the exact path never ran";
  EXPECT_LT(exact, judged) << "the O(m log n) rules never decided";
  EXPECT_GT(invalid, 0u);
  EXPECT_LT(invalid, judged);
}

// Both validators draw the V+ id limit at the same place: the last id
// below it applies (and grows the universe), the limit itself and 2^31 are
// rejected, and the server keeps applying valid batches afterwards.
TEST_F(ValidateBatch, VPlusIdLimitAgreesWithReference) {
  SplitMix64 rng(0x1D5);
  for (int i = 0; i < 8; ++i) {
    const Forest f = test::kShapes[i % std::size(test::kShapes)].build(
        60 + 40 * i, rng.next(), 12);
    Differential d(f, rng.next());
    VertexId p = 0;  // a parent with a free child slot
    while (!f.present(p) || f.degree(p) >= f.degree_bound()) ++p;
    const auto limit = static_cast<VertexId>(
        forest::vplus_id_limit(d.mirror().capacity(), 1));
    for (const VertexId id : {static_cast<VertexId>(1u << 31), limit,
                              static_cast<VertexId>(limit - 1)}) {
      ChangeSet m;
      m.ins_vertex(id).ins_edge(id, p);
      ASSERT_TRUE(d.judge(m)) << "V+ id " << id;
    }
    EXPECT_EQ(d.invalid, 2u);
    EXPECT_EQ(d.mirror().capacity(), limit);
    ChangeSet next;
    next.ins_vertex(limit).ins_edge(limit, limit - 1);
    ASSERT_TRUE(d.judge(next));
    EXPECT_EQ(d.invalid, 2u) << "a valid batch after the rejections";
    d.expect_counters();
  }
}

TEST_F(ValidateBatch, HarnessCandidatesAgreeWithReference) {
  std::uint64_t judged = 0;
  std::uint64_t exact = 0;
  std::uint64_t discarded = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    harness::WorkloadConfig cfg;
    cfg.seed = seed;
    cfg.n = 20 + (seed * 37) % 200;
    cfg.extra_capacity = 16;
    cfg.target_ops = 300;
    cfg.max_batch = 16;
    std::vector<std::pair<ChangeSet, bool>> candidates;
    const harness::Trace t = harness::generate_trace(
        cfg, [&](const ChangeSet& m, bool valid) {
          candidates.emplace_back(m, valid);
        });
    Differential d(t.initial, t.contraction_seed);
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      const auto& [m, valid] = candidates[k];
      ASSERT_EQ(forest::check_change_set(d.mirror(), m).has_value(), !valid)
          << "the mirror left the generator's forest";
      ASSERT_TRUE(d.judge(m)) << "seed " << seed << ", candidate " << k;
      if (!valid) ++discarded;
    }
    d.expect_counters();
    judged += d.judged;
    exact += d.exact;
  }
  std::cout << judged << " harness batches: " << discarded << " invalid, "
            << exact << " decided by the exact path\n";
  EXPECT_GT(discarded, 0u) << "no discarded candidate was judged";
  EXPECT_GT(exact, 0u) << "the exact path never ran";
  EXPECT_LT(exact, judged) << "the O(m log n) rules never decided";
}

}  // namespace
}  // namespace parct
