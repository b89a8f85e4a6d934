// Tests for the benchmark's own code: the batch generator only produces
// batches forest::check_change_set accepts, the model oracle answers
// correctly, and the span self-time arithmetic is right.
#include <gtest/gtest.h>

#include <vector>

#include "forest/change_set.hpp"
#include "forest/generators.hpp"
#include "report.hpp"
#include "serve.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using parct::forest::ChangeSet;
using parct::forest::Forest;

// Applies every batch to a model forest, checking it first.
void expect_valid_stream(const Forest& initial,
                         const std::vector<ChangeSet>& batches,
                         std::size_t limit) {
  Forest model = initial;
  for (std::size_t i = 0; i < batches.size() && i < limit; ++i) {
    const auto err = parct::forest::check_change_set(model, batches[i]);
    ASSERT_FALSE(err.has_value()) << "batch " << i << ": " << *err;
    apply_batch(model, batches[i]);
  }
}

TEST(Workload, EveryWorkloadGeneratesValidBatches) {
  for (const std::string& name : workload_names()) {
    SCOPED_TRACE(name);
    const auto spec = find_workload(name);
    ASSERT_TRUE(spec.has_value());
    const Inputs in = make_inputs(*spec, 7, 0.5);
    ASSERT_GT(in.batches.size(), spec->warmup_updates + 4);
    EXPECT_EQ(in.initial.capacity(), spec->n);
    for (std::size_t i = 0; i < 4; ++i) {
      const BatchShape& shape = spec->shapes[i % spec->shapes.size()];
      EXPECT_EQ(in.batches[i].remove_edges.size(), shape.cuts);
      EXPECT_EQ(in.batches[i].add_edges.size(), shape.links);
    }
    expect_valid_stream(in.initial, in.batches,
                        spec->n > 500000 ? 6 : 40);
  }
}

TEST(Workload, LongStreamsStayValidAndSteady) {
  const Forest full = parct::forest::random_forest(3000, 8, 4, 0.6, 11);
  BatchGenerator gen(full, 20, 5);
  const Forest initial = gen.current_forest();
  std::vector<ChangeSet> batches;
  const BatchShape shapes[] = {{20, 20}, {7, 3}, {3, 7}, {1, 0}, {0, 1}};
  for (std::size_t i = 0; i < 2000; ++i) {
    batches.push_back(gen.next(shapes[i % 5]));
  }
  expect_valid_stream(initial, batches, batches.size());
  // Every 5 batches cut and link equally many edges.
  EXPECT_EQ(gen.pooled_edges(), 20u);
  EXPECT_EQ(gen.present_edges() + gen.pooled_edges(), full.num_edges());
}

TEST(Workload, SameSeedSameInputs) {
  const auto spec = find_workload("mixed_serving");
  const Inputs a = make_inputs(*spec, 3, 1);
  const Inputs b = make_inputs(*spec, 3, 1);
  const Inputs c = make_inputs(*spec, 4, 1);
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].remove_edges, b.batches[i].remove_edges);
    EXPECT_EQ(a.batches[i].add_edges, b.batches[i].add_edges);
  }
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.queries[5].roots, b.queries[5].roots);
  EXPECT_NE(a.weights, c.weights);
}

TEST(Model, AnswersFromAPlainForest) {
  // 0 <- 1 <- 2, 0 <- 3; 4 <- 5.
  Forest f(6, 4, 6);
  f.link(1, 0);
  f.link(2, 1);
  f.link(3, 0);
  f.link(5, 4);
  const std::vector<VertexId> roots = forest_roots(f);
  EXPECT_EQ(roots, (std::vector<VertexId>{0, 0, 0, 0, 4, 4}));
  const std::vector<Weight> tw =
      tree_weights_by_root(roots, {1, 2, 3, 4, 5, 6});
  parct::service::QueryBatch q;
  q.roots = {2, 5, 99};
  q.connected = {{2, 3}, {2, 5}, {1, 99}};
  q.tree_weights = {3, 4, 99};
  const parct::service::QueryResult r = model_answer(q, roots, tw);
  EXPECT_EQ(r.roots, (std::vector<VertexId>{0, 4, parct::kNoVertex}));
  EXPECT_EQ(r.connected, (std::vector<std::uint8_t>{1, 0, 0}));
  EXPECT_EQ(r.tree_weights, (std::vector<Weight>{10, 11, 0}));
}

Span span(std::string_view name, std::uint64_t req, std::int32_t parent,
          std::int64_t start, std::int64_t end) {
  return {name, req, parent, start, end};
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      span("root", 1, -1, 0, 100),
      span("a", 1, 0, 10, 30),   // overlaps b: union [10, 50]
      span("b", 1, 0, 20, 50),
      span("c", 1, 0, 90, 120),  // clipped to [90, 100]
      span("a1", 1, 1, 15, 25),  // grandchild: counts against a only
      span("root", 2, -1, 200, 260),
      span("a", 2, 5, 200, 260),  // covers its parent entirely
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{50, 10, 30, 30, 10, 0, 60}));

  const std::vector<double> a =
      per_request_self_ns(spans, self, "root", {"a", "a1"});
  EXPECT_EQ(a, (std::vector<double>{20, 60}));
  const std::vector<double> cov = child_coverage(spans, self, "root");
  EXPECT_EQ(cov, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(durations_ns(spans, "a"), (std::vector<double>{20, 60}));
}

TEST(Trace, TracerNestsScopes) {
  Tracer tr;
  {
    const Tracer::Scope root(tr, "root", 9);
    { const Tracer::Scope child(tr, "child", 9); }
    { const Tracer::Scope child(tr, "child", 9); }
  }
  { const Tracer::Scope other(tr, "other", 10); }
  const std::vector<Span>& s = tr.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  for (const Span& x : s) EXPECT_LE(x.start_ns, x.end_ns);
  EXPECT_LE(s[1].end_ns, s[2].start_ns);
  EXPECT_LE(s[2].end_ns, s[0].end_ns);
}

TEST(Report, MedianAndPercentile) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile({5}, 99), 5);
}

}  // namespace
}  // namespace perfbench
