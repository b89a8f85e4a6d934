// Tests for contraction-structure serialization: round-trip identity and,
// crucially, that a loaded structure keeps updating correctly (same coin
// schedule) — dynamic updates on the loaded copy must equal updates on the
// original. The aggregate section round-trips randomized forests with a
// bound TreeAggregate (save_weight_table/load_weight_table) and checks
// that the reloaded (structure, aggregate) pair repairs incrementally like
// the original.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "alloc_probe.hpp"
#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "contraction/serialize.hpp"
#include "contraction/validate.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "hashing/splitmix64.hpp"
#include "primitives/bytes.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"

namespace parct::contract {
namespace {

std::string saved(const ContractionForest& c) {
  std::string bytes;
  save(c, bytes);
  return bytes;
}

// Decodes exactly one structure: trailing bytes are an error too.
ContractionForest loaded(const std::string& bytes) {
  prim::ByteReader in(bytes, "serialize_test");
  ContractionForest c = load(in);
  in.expect_end();
  return c;
}

std::string saved_weights(const rc::TreeAggregate<long>& agg) {
  std::string bytes;
  rc::save_weight_table(agg.weights(), bytes);
  return bytes;
}

// Binds a decoded weight table to `rcf`, rebuilding the accumulators.
template <typename T>
rc::TreeAggregate<T> loaded_aggregate(const rc::RCForest& rcf,
                                      const std::string& bytes) {
  prim::ByteReader in(bytes, "serialize_test");
  std::vector<T> w =
      rc::load_weight_table<T>(in, rcf.structure().capacity());
  in.expect_end();
  return rc::TreeAggregate<T>(rcf, std::move(w));
}

TEST(Serialize, RoundTripIdentity) {
  forest::Forest f = forest::build_tree(700, 4, 0.5, 3);
  ContractionForest c(f.capacity(), 4, 2024);
  construct(c, f);

  const std::string bytes = saved(c);
  ContractionForest back = loaded(bytes);

  EXPECT_EQ(back.capacity(), c.capacity());
  EXPECT_EQ(back.degree_bound(), c.degree_bound());
  EXPECT_EQ(back.seed(), c.seed());
  EXPECT_TRUE(structurally_equal(c, back));
  EXPECT_FALSE(check_valid(back, f).has_value());

  // Saving appends: a prefix already in the buffer is kept.
  std::string prefixed = "ab";
  save(c, prefixed);
  EXPECT_EQ(prefixed, "ab" + bytes);
}

TEST(Serialize, EmptyStructure) {
  ContractionForest c(16, 4, 5);
  ContractionForest back = loaded(saved(c));
  EXPECT_EQ(back.capacity(), 16u);
  EXPECT_TRUE(structurally_equal(c, back));
}

TEST(Serialize, LoadedStructureUpdatesIdentically) {
  forest::Forest full = forest::build_tree(900, 4, 0.6, 7, 8);
  auto [initial, batch] = forest::make_insert_batch(full, 25, 11);

  ContractionForest original(initial.capacity(), 4, 777);
  construct(original, initial);

  ContractionForest back = loaded(saved(original));

  modify_contraction(original, batch);
  modify_contraction(back, batch);
  EXPECT_TRUE(structurally_equal(original, back));
}

TEST(Serialize, RejectsGarbage) {
  EXPECT_THROW(loaded("definitely not a contraction structure"),
               std::runtime_error);
}

TEST(SerializeAggregate, RandomForestRoundTrip) {
  // Randomized forest shapes x random weights: the reloaded (structure,
  // aggregate) pair must answer every tree-weight query like the original.
  for (const std::uint64_t seed : {3u, 19u, 58u}) {
    const std::size_t n = 400 + 150 * seed;
    forest::Forest f = forest::random_forest(n, 5, 4, 0.4, seed);
    ContractionForest c(n, 4, 900 + seed);
    construct(c, f);
    rc::RCForest rcf(c);
    hashing::SplitMix64 rng(seed * 13 + 1);
    std::vector<long> w(n);
    for (long& x : w) x = static_cast<long>(rng.next_below(1000));
    rc::TreeAggregate<long> agg(rcf, w);

    ContractionForest lc = loaded(saved(c));
    rc::RCForest lrcf(lc);
    rc::TreeAggregate<long> lagg =
        loaded_aggregate<long>(lrcf, saved_weights(agg));

    ASSERT_EQ(lagg.weights(), agg.weights()) << "seed " << seed;
    ASSERT_EQ(lagg.accumulators(), agg.accumulators()) << "seed " << seed;
    for (VertexId v = 0; v < n; ++v) {
      if (!f.present(v)) continue;
      ASSERT_EQ(lagg.tree_weight(v), agg.tree_weight(v))
          << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(SerializeAggregate, LoadedPairRepairsIncrementally) {
  // The loaded copy is live, not a snapshot: dynamic updates with the
  // incremental prepare_update/refresh/apply_update repair must track the
  // original exactly (same coin schedule, same weights).
  const std::size_t n = 800;
  forest::Forest f = forest::random_forest(n, 6, 4, 0.45, 42);
  ContractionForest c(n, 4, 4242);
  construct(c, f);
  rc::RCForest rcf(c);
  hashing::SplitMix64 rng(99);
  std::vector<long> w(n);
  for (long& x : w) x = static_cast<long>(rng.next_below(50));
  rc::TreeAggregate<long> agg(rcf, w);

  ContractionForest lc = loaded(saved(c));
  rc::RCForest lrcf(lc);
  rc::TreeAggregate<long> lagg =
      loaded_aggregate<long>(lrcf, saved_weights(agg));

  DynamicUpdater upd(c), lupd(lc);
  forest::Forest cur = f;
  for (int step = 0; step < 5; ++step) {
    forest::ChangeSet m = forest::make_delete_batch(cur, 5, 500 + step);
    cur = forest::apply_change_set(cur, m);
    auto apply_and_repair = [&m](DynamicUpdater& u, rc::RCForest& r,
                                 rc::TreeAggregate<long>& a) {
      u.apply(m);
      a.prepare_update(u.touched());
      r.refresh(u.touched());
      a.apply_update();
    };
    apply_and_repair(upd, rcf, agg);
    apply_and_repair(lupd, lrcf, lagg);
    ASSERT_TRUE(structurally_equal(c, lc)) << "step " << step;
    ASSERT_EQ(lagg.accumulators(), agg.accumulators()) << "step " << step;
  }
}

TEST(SerializeAggregate, RejectsMismatchAndGarbage) {
  forest::Forest f = forest::build_tree(120, 4, 0.5, 6);
  ContractionForest c(f.capacity(), 4, 8);
  construct(c, f);
  rc::RCForest rcf(c);
  rc::TreeAggregate<long> agg(rcf, std::vector<long>(f.capacity(), 1));

  EXPECT_THROW(loaded_aggregate<long>(rcf, "not an aggregate"),
               std::runtime_error);

  // Element-type mismatch: saved as long, loaded as int.
  const std::string bytes = saved_weights(agg);
  EXPECT_THROW(loaded_aggregate<int>(rcf, bytes), std::runtime_error);

  // Capacity mismatch: bound forest differs from the saved table.
  forest::Forest g = forest::build_tree(60, 4, 0.5, 6);
  ContractionForest c2(g.capacity(), 4, 8);
  construct(c2, g);
  rc::RCForest rcf2(c2);
  EXPECT_THROW(loaded_aggregate<long>(rcf2, bytes), std::runtime_error);

  // Truncation mid-table.
  EXPECT_THROW(loaded_aggregate<long>(rcf, bytes.substr(0, bytes.size() / 2)),
               std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
  forest::Forest f = forest::build_tree(100, 4, 0.5, 1);
  ContractionForest c(f.capacity(), 4, 2);
  construct(c, f);
  const std::string full_bytes = saved(c);
  EXPECT_THROW(loaded(full_bytes.substr(0, full_bytes.size() / 2)),
               std::runtime_error);
}

// Regression helpers for the corrupt-header hardening: a saved structure
// with one header field overwritten in place.
namespace {

void poke(std::string& bytes, std::size_t offset, std::uint64_t value,
          std::size_t size) {
  ASSERT_LE(offset + size, bytes.size());
  for (std::size_t i = 0; i < size; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

// Header layout: magic u64 @0, version u32 @8, capacity u64 @12,
// degree_bound u32 @20, seed u64 @24; first vertex duration u32 @32.
constexpr std::size_t kCapacityOffset = 12;
constexpr std::size_t kFirstDurationOffset = 32;

}  // namespace

TEST(Serialize, RejectsHugeDeclaredCapacity) {
  // Regression: load() used to allocate the declared capacity up front, so
  // a corrupt header drove a multi-GB allocation before truncation was
  // noticed. An insane capacity must be rejected outright...
  forest::Forest f = forest::build_tree(64, 4, 0.5, 9);
  ContractionForest c(f.capacity(), 4, 11);
  construct(c, f);
  std::string bytes = saved(c);
  poke(bytes, kCapacityOffset, std::uint64_t(1) << 60, 8);
  EXPECT_THROW(loaded(bytes), std::runtime_error);

  // ...and a merely-lying capacity (within bounds but unbacked by bytes)
  // must hit the truncation path without committing the memory first:
  // no single allocation reaches the size of the input.
  poke(bytes, kCapacityOffset, std::uint64_t(1) << 30, 8);
  const test::Allocations lying = test::allocations_during(
      [&] { EXPECT_THROW(loaded(bytes), std::runtime_error); });
  EXPECT_LT(lying.largest, bytes.size());
}

TEST(Serialize, RejectsInsaneVertexDuration) {
  // Regression: duration = UINT32_MAX wrapped max_rounds + 1 to 0 in
  // coins().ensure_rounds and pre-allocated UINT32_MAX round records.
  forest::Forest f = forest::build_tree(64, 4, 0.5, 9);
  ContractionForest c(f.capacity(), 4, 11);
  construct(c, f);
  std::string bytes = saved(c);
  poke(bytes, kFirstDurationOffset, 0xFFFFFFFFull, 4);
  EXPECT_THROW(loaded(bytes), std::runtime_error);

  // Large-but-not-wrapping is still beyond any real contraction depth.
  poke(bytes, kFirstDurationOffset, (1ull << 20) + 1, 4);
  EXPECT_THROW(loaded(bytes), std::runtime_error);
}

}  // namespace
}  // namespace parct::contract
