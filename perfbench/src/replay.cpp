#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "durability/checkpoint.hpp"
#include "durability/manager.hpp"
#include "durability/wal.hpp"
#include "parallel/parallel_for.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"
#include "serve.hpp"
#include "service/snapshot.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using parct::service::QueryBatch;
using parct::service::QueryResult;
using parct::service::Snapshot;
using parct::service::SnapshotHandle;
using Scope = Tracer::Scope;

namespace {

// Off-path samples: layers a workload's served path skips are timed
// beside it on this many of its updates.
constexpr std::size_t kValidateSamples = 16;
constexpr std::size_t kProbeBatches = 64;

// BatchServer::answer's fan-out over a pinned snapshot.
QueryResult answer(const Snapshot& snap, const QueryBatch& q) {
  QueryResult r;
  r.version = snap.version;
  r.roots.resize(q.roots.size());
  parct::par::parallel_for(0, q.roots.size(), [&](std::size_t i) {
    r.roots[i] = snap.root(q.roots[i]);
  });
  r.connected.resize(q.connected.size());
  parct::par::parallel_for(0, q.connected.size(), [&](std::size_t i) {
    r.connected[i] =
        snap.connected(q.connected[i].first, q.connected[i].second) ? 1 : 0;
  });
  r.tree_weights.resize(q.tree_weights.size());
  parct::par::parallel_for(0, q.tree_weights.size(), [&](std::size_t i) {
    r.tree_weights[i] = snap.tree_weight(q.tree_weights[i]);
  });
  return r;
}

// The replica of the served state, built and repaired through the same
// public functions BatchServer uses.
struct Replica {
  std::unique_ptr<parct::contract::ContractionForest> forest;
  std::unique_ptr<parct::durability::Manager> manager;
  std::unique_ptr<parct::contract::DynamicUpdater> updater;
  std::unique_ptr<parct::rc::RCForest> rcf;
  std::unique_ptr<parct::rc::TreeAggregate<Weight>> agg;
  parct::service::SnapshotStore store;
  parct::forest::Forest mirror{0};

  void publish(std::uint64_t version) {
    auto buf = store.begin_build();
    buf->assign_from(*rcf, agg.get(), version);
    store.publish(std::move(buf));
  }
};

// Newest checkpoint file in `dir`, by version.
std::optional<std::pair<std::uint64_t, fs::path>> newest_checkpoint(
    const std::string& dir) {
  std::optional<std::pair<std::uint64_t, fs::path>> best;
  for (const auto& e : fs::directory_iterator(dir)) {
    const auto v =
        parct::durability::checkpoint_version_of(e.path().filename().string());
    if (v && (!best || *v > best->first)) best.emplace(*v, e.path());
  }
  return best;
}

}  // namespace

ReplayResult replay(const WorkloadSpec& spec, const Inputs& in,
                    std::size_t updates, const std::string& dir, Tracer& tr,
                    Report& report) {
  ReplayResult res;
  fs::remove_all(dir);
  Replica rep;

  // Set-up: construct, initial checkpoint, derived layers, first publish.
  {
    const Scope setup(tr, "service.setup", kSetupRequest);
    const double heap0 = heap_mb();
    {
      const Scope s(tr, "contraction.construct", kSetupRequest);
      rep.forest = std::make_unique<parct::contract::ContractionForest>(
          spec.n, in.initial.degree_bound(), in.coin_seed);
      parct::contract::construct(*rep.forest, in.initial);
    }
    res.construct_heap_mb = heap_mb() - heap0;
    rep.manager = std::make_unique<parct::durability::Manager>(dir);
    {
      const Scope s(tr, "durability.checkpoint", kSetupRequest);
      rep.manager->checkpoint(*rep.forest, in.weights, 0);
    }
    const Scope s(tr, "service.server_init", kSetupRequest);
    rep.updater =
        std::make_unique<parct::contract::DynamicUpdater>(*rep.forest);
    rep.rcf = std::make_unique<parct::rc::RCForest>(*rep.forest);
    rep.agg = std::make_unique<parct::rc::TreeAggregate<Weight>>(*rep.rcf,
                                                                  in.weights);
    if (spec.validate_updates) rep.mirror = rep.forest->extract_forest();
    rep.manager->open_log(0);
    rep.publish(0);
  }

  // Where validation is off, a plain model forest follows the updates so
  // the sampled validations check against the right version.
  std::optional<parct::forest::Forest> model;
  if (!spec.validate_updates) model = in.initial;
  const std::size_t sample_every =
      std::max<std::size_t>(1, updates / kValidateSamples);

  parct::contract::TouchedRecorder touched;
  std::uint64_t version = 0;
  std::size_t ring = 0;
  for (std::size_t i = 0; i < updates; ++i) {
    const parct::forest::ChangeSet& batch = in.batches[i];
    if (model && i % sample_every == 0) {
      const std::uint64_t req = kValidateSampleRequest + i;
      const Scope s(tr, "forest.validate_sample", req);
      std::optional<std::string> err;
      {
        const Scope c(tr, "forest.check_change_set", req);
        err = parct::forest::check_change_set(*model, batch);
      }
      {
        const Scope a(tr, "forest.apply_change_set", req);
        *model = parct::forest::apply_change_set(*model, batch);
      }
      if (err) report.fail("generated batch " + std::to_string(i) + ": " + *err);
    } else if (model) {
      apply_batch(*model, batch);
    }

    const Scope epoch(tr, "service.epoch", i);
    const SnapshotHandle pinned = rep.store.acquire();
    if (spec.loop == Loop::kMixed) {
      for (std::size_t b = 0; b < spec.outstanding_queries; ++b) {
        const Scope q(tr, "service.query_batch", i);
        answer(*pinned, in.queries[ring++ % in.queries.size()]);
      }
    }
    if (spec.validate_updates) {
      const Scope s(tr, "forest.check_change_set", i);
      if (auto err = parct::forest::check_change_set(rep.mirror, batch)) {
        report.fail("update " + std::to_string(i) + " failed validation: " +
                    *err);
      }
    }
    {
      const Scope s(tr, "contraction.apply", i);
      rep.updater->apply(batch, &touched);
    }
    {
      const std::uint64_t before = rep.manager->wal_bytes();
      {
        const Scope s(tr, "durability.wal_append", i);
        rep.manager->append(version + 1, batch, {});
      }
      const std::uint64_t after = rep.manager->wal_bytes();
      if (after > before) {
        res.wal_record_bytes.push_back(static_cast<double>(after - before));
      }
    }
    {
      const Scope s(tr, "rc.repair", i);
      std::vector<VertexId>& tv = touched.vertices();
      tv.insert(tv.end(), batch.remove_vertices.begin(),
                batch.remove_vertices.end());
      {
        const Scope p(tr, "rc.prepare_update", i);
        rep.agg->prepare_update(tv);
      }
      {
        const Scope r(tr, "rc.refresh", i);
        rep.rcf->refresh(tv);
      }
      const Scope a(tr, "rc.apply_update", i);
      rep.agg->apply_update();
    }
    res.touched.push_back(static_cast<double>(touched.vertices().size()));
    touched.clear();
    if (spec.validate_updates) {
      const Scope s(tr, "forest.apply_change_set", i);
      rep.mirror = parct::forest::apply_change_set(rep.mirror, batch);
    }
    ++version;
    {
      const Scope s(tr, "service.publish", i);
      rep.publish(version);
    }
    if (spec.checkpoint_every != 0 && version % spec.checkpoint_every == 0) {
      const Scope s(tr, "durability.checkpoint", i);
      rep.manager->checkpoint(*rep.forest, rep.agg->weights(), version);
    }
  }

  // Query batches at the final version where the traffic has none.
  if (spec.loop != Loop::kMixed) {
    for (std::size_t b = 0; b < kProbeBatches; ++b) {
      const Scope s(tr, "service.query_probe", kProbeRequest + b);
      const Scope q(tr, "service.query_batch", kProbeRequest + b);
      answer(*rep.store.acquire(), in.queries[b % in.queries.size()]);
    }
  }

  std::vector<double> chain;
  for (std::size_t b = 0; b < 8 && b < in.queries.size(); ++b) {
    const QueryBatch& q = in.queries[b];
    for (VertexId v : q.roots) chain.push_back(rep.rcf->chain_length(v));
    for (const auto& [u, v] : q.connected) {
      chain.push_back(rep.rcf->chain_length(u));
      chain.push_back(rep.rcf->chain_length(v));
    }
    for (VertexId v : q.tree_weights) chain.push_back(rep.rcf->chain_length(v));
  }
  res.chain_steps = mean(chain);

  const SnapshotHandle pre_crash = rep.store.acquire();
  res.snapshot_bytes =
      pre_crash->events.size() * sizeof(parct::rc::Event) +
      (pre_crash->weights.size() + pre_crash->accumulators.size()) *
          sizeof(Weight);

  // The crash, then recovery: newest checkpoint, WAL tail replayed on it.
  rep.agg.reset();
  rep.rcf.reset();
  rep.updater.reset();
  rep.manager.reset();
  rep.forest.reset();
  const auto ck = newest_checkpoint(dir);
  if (!ck) {
    report.fail("replay: no checkpoint to recover from");
    return res;
  }
  res.checkpoint_bytes = fs::file_size(ck->second);
  std::optional<parct::durability::Checkpoint> loaded;
  std::uint64_t expected = 0;
  {
    const Scope root(tr, "durability.recover", kRecoverRequest);
    {
      const Scope s(tr, "durability.read_checkpoint", kRecoverRequest);
      loaded.emplace(parct::durability::read_checkpoint(ck->second.string()));
    }
    expected = loaded->version + 1;
    const Scope s(tr, "durability.replay_wal", kRecoverRequest);
    std::vector<std::pair<std::uint64_t, fs::path>> segments;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (const auto b =
              parct::durability::wal_base_of(e.path().filename().string())) {
        segments.emplace_back(*b, e.path());
      }
    }
    std::sort(segments.begin(), segments.end());
    parct::contract::DynamicUpdater up(loaded->forest);
    for (const auto& [base, path] : segments) {
      const parct::durability::SegmentContents seg =
          parct::durability::read_wal_segment(path.string());
      for (const parct::durability::WalRecord& r : seg.records) {
        if (r.version != expected) continue;
        up.apply(r.batch);
        ++expected;
        ++res.recovery_replayed;
      }
    }
  }
  const parct::rc::RCForest rcf(loaded->forest);
  const parct::rc::TreeAggregate<Weight> agg(rcf, loaded->weights);
  Snapshot recovered;
  recovered.assign_from(rcf, &agg, expected - 1);
  ++report.attempted;
  const std::string err = compare_snapshots(*pre_crash, recovered);
  if (!err.empty()) report.fail("replay recovery: " + err);
  fs::remove_all(dir);
  return res;
}

}  // namespace perfbench
