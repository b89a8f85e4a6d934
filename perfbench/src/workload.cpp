#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "forest/generators.hpp"
#include "hashing/splitmix64.hpp"

namespace perfbench {

namespace {

// The paper's Fig. 6 input shape: 8 chain-factor trees, degree bound 4.
constexpr std::size_t kTrees = 8;
constexpr int kDegree = 4;
constexpr double kChainFactor = 0.6;
constexpr std::size_t kQueryRing = 64;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return parct::hashing::mix64(seed * 0x9E3779B97F4A7C15ull + stream);
}

}  // namespace

std::optional<WorkloadSpec> find_workload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "point_updates") {
    w.loop = Loop::kStep;
    w.n = 50000;
    w.shapes = {{1, 0}, {0, 1}};
    w.checkpoint_every = 5000;
    w.pool_workers = 1;
    w.warmup_updates = 500;
    w.query_phase_share = 0.15;
    w.episode_seconds = 2.5;
    w.max_updates_per_s = 20000;
  } else if (name == "bulk_batches") {
    w.loop = Loop::kEngine;
    w.n = 1000000;
    w.shapes = {{5000, 5000}};
    w.initial_pool = 5000;
    w.checkpoint_every = 8;
    w.pool_workers = 4;
    w.warmup_updates = 2;
    w.query_phase_share = 0.15;
    w.max_updates_per_s = 20;
  } else if (name == "mixed_serving") {
    w.loop = Loop::kMixed;
    w.n = 50000;
    w.shapes = {{32, 32}};
    w.initial_pool = 32;
    w.validate_updates = true;
    w.pool_workers = 2;
    w.warmup_updates = 2;
    w.update_period_s = 0.1;
    w.outstanding_queries = 32;
    w.episode_seconds = 2.5;
  } else {
    return std::nullopt;
  }
  return w;
}

std::vector<std::string> workload_names() {
  return {"point_updates", "bulk_batches", "mixed_serving"};
}

BatchGenerator::BatchGenerator(const parct::forest::Forest& full,
                               std::size_t initial_pool, std::uint64_t seed)
    : full_(full), state_(seed) {
  for (VertexId v = 0; v < full.capacity(); ++v) {
    if (full.present(v) && !full.is_root(v)) present_.push_back(v);
  }
  if (initial_pool > present_.size()) {
    throw std::invalid_argument("BatchGenerator: pool exceeds edge count");
  }
  for (std::size_t i = 0; i < initial_pool; ++i) {
    const std::size_t j = draw(present_.size());
    pool_.push_back(present_[j]);
    present_[j] = present_.back();
    present_.pop_back();
  }
}

std::uint64_t BatchGenerator::draw(std::uint64_t bound) {
  parct::hashing::SplitMix64 rng(state_);
  state_ = rng.next();
  return rng.next_below(bound);
}

parct::forest::Forest BatchGenerator::current_forest() const {
  parct::forest::Forest f = full_;
  for (VertexId c : pool_) f.cut(c);
  return f;
}

parct::forest::ChangeSet BatchGenerator::next(const BatchShape& shape) {
  if (shape.links > pool_.size() || shape.cuts > present_.size()) {
    throw std::logic_error("BatchGenerator: batch shape exceeds the pool");
  }
  parct::forest::ChangeSet m;
  // Links first, from edges cut by earlier batches; the cuts are drawn
  // from the edges present before this batch, so no edge is both cut and
  // linked in one batch.
  std::vector<VertexId> linked;
  for (std::size_t i = 0; i < shape.links; ++i) {
    const std::size_t j = draw(pool_.size());
    linked.push_back(pool_[j]);
    pool_[j] = pool_.back();
    pool_.pop_back();
  }
  for (std::size_t i = 0; i < shape.cuts; ++i) {
    const std::size_t j = draw(present_.size());
    const VertexId c = present_[j];
    m.remove_edges.push_back({c, full_.parent(c)});
    pool_.push_back(c);
    present_[j] = present_.back();
    present_.pop_back();
  }
  for (VertexId c : linked) {
    m.add_edges.push_back({c, full_.parent(c)});
    present_.push_back(c);
  }
  return m;
}

parct::service::QueryBatch make_query_batch(std::size_t n,
                                            std::size_t items_each,
                                            std::uint64_t seed) {
  parct::hashing::SplitMix64 rng(seed);
  auto id = [&] { return static_cast<VertexId>(rng.next_below(n)); };
  parct::service::QueryBatch q;
  for (std::size_t i = 0; i < items_each; ++i) {
    q.roots.push_back(id());
    const VertexId u = id();
    q.connected.emplace_back(u, id());
    q.tree_weights.push_back(id());
  }
  return q;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds) {
  Inputs in;
  const parct::forest::Forest full = parct::forest::random_forest(
      spec.n, kTrees, kDegree, kChainFactor, sub_seed(seed, 1));
  BatchGenerator gen(full, spec.initial_pool, sub_seed(seed, 2));
  in.initial = gen.current_forest();

  parct::hashing::SplitMix64 wrng(sub_seed(seed, 3));
  in.weights.resize(spec.n);
  for (Weight& w : in.weights) w = 1 + static_cast<Weight>(wrng.next_below(1000));
  in.coin_seed = sub_seed(seed, 4);

  std::size_t count = spec.warmup_updates;
  if (spec.loop == Loop::kMixed) {
    count += static_cast<std::size_t>(
        std::llround(seconds / spec.update_period_s));
  } else {
    // Whole checkpoint cycles at the fastest plausible rate, plus one.
    const auto most = static_cast<std::size_t>(
        std::ceil(spec.max_updates_per_s * seconds));
    const std::size_t cycle = std::max<std::uint64_t>(spec.checkpoint_every, 1);
    count += (most / cycle + 2) * cycle;
  }
  in.batches.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    in.batches.push_back(gen.next(spec.shapes[i % spec.shapes.size()]));
  }
  for (std::size_t i = 0; i < kQueryRing; ++i) {
    in.queries.push_back(
        make_query_batch(spec.n, spec.query_items_each, sub_seed(seed, 100 + i)));
  }
  return in;
}

std::vector<VertexId> forest_roots(const parct::forest::Forest& f) {
  const std::size_t n = f.capacity();
  std::vector<VertexId> root(n, parct::kNoVertex);
  std::vector<VertexId> path;
  for (VertexId v = 0; v < n; ++v) {
    if (!f.present(v) || root[v] != parct::kNoVertex) continue;
    VertexId u = v;
    while (root[u] == parct::kNoVertex && !f.is_root(u)) {
      path.push_back(u);
      u = f.parent(u);
    }
    const VertexId r = root[u] != parct::kNoVertex ? root[u] : u;
    root[u] = r;
    for (VertexId p : path) root[p] = r;
    path.clear();
  }
  return root;
}

std::vector<Weight> tree_weights_by_root(const std::vector<VertexId>& roots,
                                         const std::vector<Weight>& weights) {
  std::vector<Weight> acc(roots.size(), 0);
  for (std::size_t v = 0; v < roots.size(); ++v) {
    if (roots[v] != parct::kNoVertex) acc[roots[v]] += weights[v];
  }
  return acc;
}

parct::service::QueryResult model_answer(
    const parct::service::QueryBatch& q, const std::vector<VertexId>& roots,
    const std::vector<Weight>& tree_weight_by_root) {
  auto root = [&](VertexId v) {
    return v < roots.size() ? roots[v] : parct::kNoVertex;
  };
  parct::service::QueryResult r;
  for (VertexId v : q.roots) r.roots.push_back(root(v));
  for (const auto& [u, v] : q.connected) {
    const VertexId ru = root(u);
    r.connected.push_back(ru != parct::kNoVertex && ru == root(v) ? 1 : 0);
  }
  for (VertexId v : q.tree_weights) {
    const VertexId rv = root(v);
    r.tree_weights.push_back(rv != parct::kNoVertex ? tree_weight_by_root[rv]
                                                    : Weight{});
  }
  return r;
}

}  // namespace perfbench
