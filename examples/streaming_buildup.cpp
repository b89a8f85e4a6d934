// Streaming construction: a forest arrives as a stream of edge batches
// (think: a crawler discovering a hierarchy, or a log of attach events).
// Two strategies maintain the contraction structure after every batch:
//
//   (a) re-run the static construction from scratch (O(n) per batch);
//   (b) absorb the batch with the dynamic update (O(m log(n/m)) expected).
//
// This is the paper's core value proposition measured end-to-end on one
// realistic usage pattern; it also shows save/load for checkpointing:
// save appends the structure's bytes to a string, load decodes them back
// through a bounds-checked ByteReader.
//
//   $ ./examples/streaming_buildup
#include <chrono>
#include <cstdio>
#include <string>

#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "contraction/serialize.hpp"
#include "forest/tree_builder.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "rc/rc_forest.hpp"

using namespace parct;

int main() {
  par::scheduler::initialize(1);
  const std::size_t n = 100000;
  const std::size_t kBatch = 1000;

  // The final forest, whose edges we stream in a random order.
  forest::Forest final_forest = forest::build_tree(n, 4, 0.5, 7);
  std::vector<Edge> stream = final_forest.edges();
  hashing::SplitMix64 rng(123);
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }

  // Strategy (b): one structure maintained dynamically.
  contract::ContractionForest dyn(n, 4, 77);
  {
    forest::Forest empty(n, 4, n);
    contract::construct(dyn, empty);
  }
  contract::DynamicUpdater updater(dyn);

  double dyn_total = 0, scratch_total = 0;
  forest::Forest cur(n, 4, n);
  std::size_t pos = 0;
  int batch_no = 0;
  while (pos < stream.size()) {
    forest::ChangeSet m;
    const std::size_t hi = std::min(pos + kBatch, stream.size());
    for (; pos < hi; ++pos) m.add_edges.push_back(stream[pos]);
    for (const Edge& e : m.add_edges) cur.link(e.child, e.parent);

    auto t0 = std::chrono::steady_clock::now();
    updater.apply(m);
    auto t1 = std::chrono::steady_clock::now();
    dyn_total += std::chrono::duration<double>(t1 - t0).count();

    // Strategy (a): from-scratch reconstruction on the same prefix.
    t0 = std::chrono::steady_clock::now();
    contract::ContractionForest scratch(n, 4, 77);
    contract::construct(scratch, cur);
    t1 = std::chrono::steady_clock::now();
    scratch_total += std::chrono::duration<double>(t1 - t0).count();

    if (++batch_no % 25 == 0) {
      std::printf(
          "after %6zu edges: dynamic %.3fs cumulative, from-scratch %.3fs "
          "cumulative (%.1fx)\n",
          pos, dyn_total, scratch_total, scratch_total / dyn_total);
    }
  }
  std::printf("stream done: dynamic %.3fs vs from-scratch %.3fs (%.1fx)\n",
              dyn_total, scratch_total, scratch_total / dyn_total);

  // Checkpoint the maintained structure and prove the copy answers queries.
  std::string checkpoint;
  contract::save(dyn, checkpoint);
  prim::ByteReader in(checkpoint, "checkpoint");
  contract::ContractionForest restored = contract::load(in);
  in.expect_end();
  rc::RCForest rcf(restored);
  std::printf(
      "checkpoint of %zu bytes restored; root(%u) = %u, connected(1, %zu) = "
      "%s\n",
      checkpoint.size(), 42u, rcf.root(42), n - 1,
      rcf.connected(1, static_cast<VertexId>(n - 1)) ? "yes" : "no");
  return 0;
}
