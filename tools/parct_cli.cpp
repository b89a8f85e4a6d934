// parct_cli — command-line driver for contraction structures.
//
//   parct_cli gen <n> <chain_factor> <seed> <file>   build + construct + save
//   parct_cli info <file>                            stats and round profile
//   parct_cli update <file> <out> del|ins <k> <seed> apply a random batch
//   parct_cli validate <file>                        full independent check
//   parct_cli dot <file> <round>                     Graphviz of round i
//   parct_cli replay [--race-detect] <trace>         re-run a harness trace
//   parct_cli checkpoint <file> <dir>                seed a durability dir
//   parct_cli restore <dir> <out>                    recover to a file
//
// Structures are stored in the parct binary format (contraction/serialize);
// replay traces are the text files the differential harness dumps on
// failure (see docs/TESTING.md).
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "contraction/analysis.hpp"
#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "contraction/serialize.hpp"
#include "contraction/validate.hpp"
#include "durability/manager.hpp"
#include "durability/posix_io.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "forest/validation.hpp"
#include "harness/differential.hpp"
#include "harness/trace.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/bytes.hpp"

using namespace parct;

namespace {

// Strict numeric argument parsing: atoi/atof accept trailing garbage and
// hide overflow (the class of defect the static-analysis gate flags); a
// malformed operand must be a usage error, not a silent zero.
std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') {
    throw std::runtime_error("not a non-negative integer: " +
                             std::string(s));
  }
  return static_cast<std::uint64_t>(v);
}

double parse_double(const char* s) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') {
    throw std::runtime_error("not a number: " + std::string(s));
  }
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: parct_cli [--serial-cutover N] <command> ...\n"
               "  parct_cli gen <n> <chain_factor> <seed> <file>\n"
               "  parct_cli info <file>\n"
               "  parct_cli update <file> <out> del|ins <k> <seed>\n"
               "  parct_cli validate <file>\n"
               "  parct_cli dot <file> <round>\n"
               "  parct_cli replay [--race-detect] <trace>\n"
               "  parct_cli checkpoint <file> <dir>\n"
               "  parct_cli restore <dir> <out>\n"
               "\n"
               "  --serial-cutover N  adaptive serial cutover override: "
               "frontiers of at\n"
               "                      most N run inline (0 = always "
               "parallel, max = always\n"
               "                      serial); overrides "
               "PARCT_SERIAL_CUTOVER and the\n"
               "                      auto-calibrated default\n");
  return 2;
}

contract::ContractionForest load_file(const std::string& path) {
  const std::string bytes = durability::detail::read_file(path);
  prim::ByteReader in(bytes, path.c_str());
  contract::ContractionForest c = contract::load(in);
  in.expect_end();
  return c;
}

void save_file(const contract::ContractionForest& c,
               const std::string& path) {
  std::string bytes;
  contract::save(c, bytes);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("write failed on " + path);
  }
  out.close();
  if (!out) throw std::runtime_error("write failed on " + path);
}

int cmd_gen(int argc, char** argv) {
  if (argc != 6) return usage();
  const std::size_t n = static_cast<std::size_t>(parse_u64(argv[2]));
  const double cf = parse_double(argv[3]);
  const std::uint64_t seed = parse_u64(argv[4]);
  forest::Forest f = forest::build_tree(n, 4, cf, seed);
  contract::ContractionForest c(f.capacity(), 4, seed ^ 0xC0DE);
  const contract::ConstructStats stats = contract::construct(c, f);
  save_file(c, argv[5]);
  std::printf("built n=%zu cf=%.2f: %u rounds, %llu work -> %s\n", n, cf,
              stats.rounds,
              static_cast<unsigned long long>(stats.total_live), argv[5]);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc != 3) return usage();
  contract::ContractionForest c = load_file(argv[2]);
  const contract::ContractionProfile p = contract::profile(c);
  std::size_t present = 0;
  for (VertexId v = 0; v < c.capacity(); ++v) {
    present += c.duration(v) > 0 ? 1 : 0;
  }
  std::printf("capacity       %zu\n", c.capacity());
  std::printf("present        %zu\n", present);
  std::printf("degree bound   %d\n", c.degree_bound());
  std::printf("seed           %llu\n",
              static_cast<unsigned long long>(c.seed()));
  std::printf("rounds         %u\n", p.num_rounds());
  std::printf("total records  %zu\n", c.total_records());
  std::printf("total work     %llu\n",
              static_cast<unsigned long long>(p.total_work()));
  std::printf("round  live     fin    rake    comp\n");
  for (std::size_t i = 0; i < p.rounds.size(); ++i) {
    const auto& r = p.rounds[i];
    std::printf("%5zu %7u %6u %7u %7u\n", i, r.live, r.finalizes, r.rakes,
                r.compresses);
  }
  return 0;
}

int cmd_update(int argc, char** argv) {
  if (argc != 7) return usage();
  contract::ContractionForest c = load_file(argv[2]);
  const bool deletes = std::strcmp(argv[4], "del") == 0;
  if (!deletes && std::strcmp(argv[4], "ins") != 0) return usage();
  const std::size_t k = static_cast<std::size_t>(parse_u64(argv[5]));
  const std::uint64_t seed = parse_u64(argv[6]);

  forest::Forest f = c.extract_forest();
  forest::ChangeSet m;
  if (deletes) {
    m = forest::make_delete_batch(f, k, seed);
  } else {
    // Random re-attachments: cut k random edges first (inside the same
    // batch) and re-insert them under fresh random parents with capacity.
    m = forest::make_delete_batch(f, k, seed);
    hashing::SplitMix64 rng(seed * 3 + 1);
    std::vector<int> extra(f.capacity(), 0);
    for (const Edge& e : m.remove_edges) {
      for (int attempts = 0; attempts < (1 << 16); ++attempts) {
        const VertexId p =
            static_cast<VertexId>(rng.next_below(f.capacity()));
        if (!f.present(p) || p == e.child) continue;
        if (f.degree(p) + extra[p] >= f.degree_bound()) continue;
        // Avoid cycles: p must not be in e.child's subtree. Conservative
        // test via root walk in the *current* forest after the cut: the
        // cut makes e.child a root, so reject p reachable to e.child.
        VertexId w = p;
        while (!f.is_root(w) && w != e.child) w = f.parent(w);
        if (w == e.child) continue;
        ++extra[p];
        m.ins_edge(e.child, p);
        break;
      }
    }
  }
  if (auto err = forest::check_change_set(f, m)) {
    std::fprintf(stderr, "generated batch invalid: %s\n", err->c_str());
    return 1;
  }
  const contract::UpdateStats stats = contract::modify_contraction(c, m);
  save_file(c, argv[3]);
  std::printf(
      "applied %zu changes: %u rounds, %llu affected total -> %s\n",
      m.size(), stats.rounds,
      static_cast<unsigned long long>(stats.total_affected), argv[3]);
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc != 3) return usage();
  contract::ContractionForest c = load_file(argv[2]);
  forest::Forest f = c.extract_forest();
  if (auto err = forest::check_forest(f)) {
    std::printf("INVALID round-0 forest: %s\n", err->c_str());
    return 1;
  }
  if (auto err = contract::check_valid(c, f)) {
    std::printf("INVALID structure: %s\n", err->c_str());
    return 1;
  }
  std::printf("OK: structure is a valid contraction of its round-0 forest "
              "(%zu records, %u rounds)\n",
              c.total_records(), c.num_rounds());
  return 0;
}

int cmd_dot(int argc, char** argv) {
  if (argc != 4) return usage();
  contract::ContractionForest c = load_file(argv[2]);
  const std::uint32_t round = static_cast<std::uint32_t>(parse_u64(argv[3]));
  std::printf("// forest at contraction round %u (alive vertices only)\n",
              round);
  std::printf("digraph round%u {\n  rankdir=BT;\n", round);
  std::size_t alive = 0;
  for (VertexId v = 0; v < c.capacity(); ++v) {
    if (c.duration(v) <= round) continue;
    ++alive;
    const contract::RoundRecord& r = c.record(round, v);
    const bool dies_next = c.duration(v) == round + 1;
    std::printf("  v%u%s;\n", v,
                dies_next ? " [style=dashed]" : "");
    if (r.parent != v) std::printf("  v%u -> v%u;\n", v, r.parent);
  }
  std::printf("}\n// %zu alive vertices (dashed contract this round)\n",
              alive);
  return 0;
}

// Re-executes a harness replay trace. The trace is self-contained (initial
// forest, batches, weights, scheduler configuration, fault injection), so
// this prints the same bytes and exits with the same status on every run.
// With --race-detect the run executes serially under the SP-bags
// determinacy-race detector (requires -DPARCT_RACE_DETECT=ON; see
// docs/STATIC_ANALYSIS.md).
int cmd_replay(int argc, char** argv) {
  harness::RunOptions opts;
  int file_arg = 2;
  if (argc == 4 && std::strcmp(argv[2], "--race-detect") == 0) {
    opts.race_detect = true;
    file_arg = 3;
  } else if (argc != 3) {
    return usage();
  }
  const harness::Trace t = harness::load_trace_file(argv[file_arg]);
  const harness::RunResult r = harness::run_trace(t, opts);
  std::printf("trace seed=%llu workers=%u steps=%zu ops=%llu\n",
              static_cast<unsigned long long>(t.master_seed), t.num_workers,
              t.steps.size(),
              static_cast<unsigned long long>(t.total_ops()));
  std::printf("applied %u steps (%u skipped), %llu ops\n", r.steps_applied,
              r.steps_skipped,
              static_cast<unsigned long long>(r.ops_applied));
  if (r.failed()) {
    std::printf("FAIL at step %d: %s\n", r.failed_step, r.failure.c_str());
    return 1;
  }
  std::printf("OK: all oracle checks passed\n");
  return 0;
}

// checkpoint <file> <dir>: seed (or roll forward) a durability directory
// from a saved structure — writes a checkpoint at version 0 with an
// all-zero weight table, the image BatchServer::recover resumes from.
int cmd_checkpoint(int argc, char** argv) {
  if (argc != 4) return usage();
  contract::ContractionForest c = load_file(argv[2]);
  durability::Manager mgr(argv[3]);
  const std::vector<durability::Weight> weights(c.capacity(), 0);
  mgr.checkpoint(c, weights, /*version=*/0);
  std::printf("checkpointed %s at version 0 into %s\n", argv[2], argv[3]);
  return 0;
}

// restore <dir> <out>: run the full recovery procedure (newest valid
// checkpoint + WAL tail replay) and save the recovered structure.
int cmd_restore(int argc, char** argv) {
  if (argc != 4) return usage();
  durability::RecoveredState st = durability::Manager::recover(argv[2]);
  save_file(*st.forest, argv[3]);
  std::printf("recovered version %llu (%llu WAL records replayed), "
              "capacity %zu -> %s\n",
              static_cast<unsigned long long>(st.version),
              static_cast<unsigned long long>(st.replayed),
              st.forest->capacity(), argv[3]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Global option: --serial-cutover N (anywhere before the command).
    // Applied via par::set_serial_cutover, so every subcommand's
    // construct/update work honors it (docs/PERFORMANCE.md "Small-batch
    // fast path").
    while (argc >= 2 && std::strcmp(argv[1], "--serial-cutover") == 0) {
      if (argc < 3) return usage();
      par::set_serial_cutover(
          static_cast<std::size_t>(parse_u64(argv[2])));
      for (int i = 3; i < argc; ++i) argv[i - 2] = argv[i];
      argc -= 2;
    }
    if (argc < 2) return usage();
    if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
    if (std::strcmp(argv[1], "info") == 0) return cmd_info(argc, argv);
    if (std::strcmp(argv[1], "update") == 0) return cmd_update(argc, argv);
    if (std::strcmp(argv[1], "validate") == 0) {
      return cmd_validate(argc, argv);
    }
    if (std::strcmp(argv[1], "dot") == 0) return cmd_dot(argc, argv);
    if (std::strcmp(argv[1], "replay") == 0) return cmd_replay(argc, argv);
    if (std::strcmp(argv[1], "checkpoint") == 0) {
      return cmd_checkpoint(argc, argv);
    }
    if (std::strcmp(argv[1], "restore") == 0) return cmd_restore(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
