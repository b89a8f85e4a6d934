// Workload definitions and seeded input generation for the serving
// benchmark. Everything a run feeds to the server is generated here from
// the workload seed, before any timing starts; the program under test
// only ever sees the generated forest, batches and query batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "forest/change_set.hpp"
#include "forest/forest.hpp"
#include "service/batch_server.hpp"

namespace perfbench {

using parct::VertexId;
using Weight = parct::service::Weight;

/// Edges cut and re-linked by one update batch. Shapes cycle: batch i
/// has shape shapes[i % shapes.size()].
struct BatchShape {
  std::size_t cuts = 0;
  std::size_t links = 0;
};

enum class Loop {
  kStep,    // 1 client, closed loop, BatchServer::step() per update
  kEngine,  // 1 client, closed loop, one update in flight via start()
  kMixed,   // closed-loop query readers + open-loop updates via start()
};

struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kStep;
  std::size_t n = 0;
  std::vector<BatchShape> shapes;
  /// Edges cut from the generated forest before construction; the first
  /// batches re-link them.
  std::size_t initial_pool = 0;
  bool validate_updates = false;
  std::uint64_t checkpoint_every = 0;
  /// Total pool workers handed to par::scheduler::initialize (the
  /// calling or engine thread is worker 0).
  unsigned pool_workers = 1;
  /// Untimed updates before the timed phase. With periodic checkpoints,
  /// the timed phase runs whole checkpoint cycles, so the WAL tail left
  /// for recovery is always warmup_updates % checkpoint_every records.
  std::size_t warmup_updates = 0;
  /// Share of the run's seconds given to the post-update query phase on
  /// the update-only workloads (their queries_per_s).
  double query_phase_share = 0;
  /// Open-loop update period and outstanding query batches (kMixed).
  double update_period_s = 0;
  std::size_t outstanding_queries = 8;
  /// Query batch shape: this many roots, connected pairs and tree weights.
  std::size_t query_items_each = 256;
  /// A run is cut into episodes of about this many seconds, each with its
  /// own pool start, set-up, traffic, crash and recovery, so set-up and
  /// recovery are timed at several points of the run, like the traffic
  /// windows, and not in one burst a host slowdown can cover.
  double episode_seconds = 5;
  /// Upper bound on updates generated up front, per second of an episode.
  double max_updates_per_s = 0;
};

/// The three workloads; nullopt for an unknown name.
std::optional<WorkloadSpec> find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Everything a run feeds the server, generated from (spec, seed).
struct Inputs {
  /// The forest the structure is constructed from (generated forest
  /// minus the initial pool).
  parct::forest::Forest initial{0};
  std::vector<Weight> weights;
  /// Coin seed of the contraction structure.
  std::uint64_t coin_seed = 0;
  std::vector<parct::forest::ChangeSet> batches;
  /// A ring of query batches the readers cycle through.
  std::vector<parct::service::QueryBatch> queries;
};

/// Draws batches that cut random present edges and re-link edges cut
/// earlier. Every edge is an edge of the generated forest, so the edited
/// forest stays a sub-forest of it: acyclic and within the degree bound,
/// and every batch is valid by construction.
class BatchGenerator {
 public:
  /// Cuts `initial_pool` random edges from `full` to seed the pool.
  BatchGenerator(const parct::forest::Forest& full, std::size_t initial_pool,
                 std::uint64_t seed);

  /// The generated forest minus the edges currently in the pool.
  parct::forest::Forest current_forest() const;

  parct::forest::ChangeSet next(const BatchShape& shape);

  std::size_t present_edges() const { return present_.size(); }
  std::size_t pooled_edges() const { return pool_.size(); }

 private:
  const parct::forest::Forest& full_;
  std::uint64_t state_;
  std::vector<VertexId> present_;  // child ids of present edges
  std::vector<VertexId> pool_;     // child ids of cut edges
  std::uint64_t draw(std::uint64_t bound);
};

/// The inputs of one episode of `seconds` (see episode_count).
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds);

parct::service::QueryBatch make_query_batch(std::size_t n,
                                            std::size_t items_each,
                                            std::uint64_t seed);

/// Root of every vertex of `f` (kNoVertex for absent ids).
std::vector<VertexId> forest_roots(const parct::forest::Forest& f);

/// Answers `q` from a plain forest: the oracle the served answers are
/// checked against.
parct::service::QueryResult model_answer(
    const parct::service::QueryBatch& q, const std::vector<VertexId>& roots,
    const std::vector<Weight>& tree_weight_by_root);

/// Per-root tree weight table for `roots` (indexed by vertex id).
std::vector<Weight> tree_weights_by_root(const std::vector<VertexId>& roots,
                                         const std::vector<Weight>& weights);

}  // namespace perfbench
