#include "analysis/sp_bags.hpp"

#if PARCT_RACE_DETECT

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "forest/types.hpp"

namespace parct::analysis::spbags {

namespace detail {

constexpr std::uint32_t kNone = 0xFFFFFFFFu;

// One disjoint-set node. is_p is meaningful only at set roots: it says
// whether the set is currently some procedure's P-bag (parallel with the
// running instruction) or an S-bag (serial with it).
struct Bag {
  std::uint32_t parent;
  std::uint8_t rank;
  bool is_p;
};

// One procedure = one BranchScope body (plus the root). fork_index/which
// reconstruct the logical fork path for race reports.
struct Proc {
  std::uint32_t sbag;
  std::uint32_t pbag;  // kNone when empty
  std::uint32_t parent_proc;
  std::uint32_t fork_index;    // which fork2join of the parent spawned us
  std::uint8_t which;          // 0 = left branch, 1 = right branch
  std::uint32_t forks_started = 0;
  std::uint8_t cur_branch = 0;
};

// Last recorded accessors of one logical location.
struct Cell {
  std::uint32_t writer = kNone;  // proc ids
  std::uint32_t reader = kNone;
  const char* w_file = nullptr;
  int w_line = 0;
  const char* r_file = nullptr;
  int r_line = 0;
};

struct State {
  std::vector<Bag> bags;
  std::vector<Proc> procs;
  std::vector<std::uint32_t> stack;  // proc ids; back() is current
  std::unordered_map<std::uint64_t, Cell> cells;
  std::uint64_t races = 0;
  std::uint64_t next_buffer = 0;
  OnRace on_race = OnRace::kAbort;
  std::thread::id owner;
};

namespace {

// The session singleton. Atomic so that pool worker threads running in an
// ON build *without* a session can evaluate active() concurrently with a
// session starting/ending on the main thread.
std::atomic<State*> g_state{nullptr};

std::atomic<std::uint32_t> g_next_structure{1};

State& state() { return *g_state.load(std::memory_order_relaxed); }

std::uint32_t current_proc(State& st) { return st.stack.back(); }

std::uint32_t make_bag(State& st, bool is_p) {
  const auto id = static_cast<std::uint32_t>(st.bags.size());
  st.bags.push_back({id, 0, is_p});
  return id;
}

// Find with path halving.
std::uint32_t find(State& st, std::uint32_t x) {
  while (st.bags[x].parent != x) {
    st.bags[x].parent = st.bags[st.bags[x].parent].parent;
    x = st.bags[x].parent;
  }
  return x;
}

// Union by rank of two roots; the surviving root is labelled `is_p`.
std::uint32_t unite(State& st, std::uint32_t a, std::uint32_t b, bool is_p) {
  if (a == b) {
    st.bags[a].is_p = is_p;
    return a;
  }
  if (st.bags[a].rank < st.bags[b].rank) std::swap(a, b);
  st.bags[b].parent = a;
  if (st.bags[a].rank == st.bags[b].rank) ++st.bags[a].rank;
  st.bags[a].is_p = is_p;
  return a;
}

// True iff the recorded accessor's bag is currently a P-bag, i.e. the
// recorded access runs logically in parallel with the current instruction.
bool in_p_bag(State& st, std::uint32_t proc) {
  return st.bags[find(st, st.procs[proc].sbag)].is_p;
}

// sync: S(F) ∪= P(F), P(F) := ∅. Everything the procedure has joined so
// far becomes serial with its continuation.
void sync_proc(State& st, std::uint32_t p) {
  Proc& proc = st.procs[p];
  if (proc.pbag == kNone) return;
  const std::uint32_t s = find(st, proc.sbag);
  const std::uint32_t pb = find(st, proc.pbag);
  unite(st, s, pb, /*is_p=*/false);
  proc.pbag = kNone;
}

// "main → f0.L → f2.R" — the chain of (fork index within parent, branch)
// pairs from the root to `proc`.
std::string fork_path(State& st, std::uint32_t proc) {
  std::vector<const Proc*> chain;
  for (std::uint32_t p = proc; p != 0; p = st.procs[p].parent_proc) {
    chain.push_back(&st.procs[p]);
  }
  std::ostringstream out;
  out << "main";
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out << " -> f" << (*it)->fork_index << ((*it)->which == 0 ? ".L" : ".R");
  }
  return out.str();
}

[[noreturn]] void report_race(State& st, const char* kind, ShadowKey key,
                              std::uint32_t prior_proc, const char* prior_file,
                              int prior_line, const char* prior_what,
                              const char* file, int line,
                              const char* cur_what) {
  ++st.races;
  std::ostringstream out;
  out << "parct determinacy race (" << kind << ") on " << describe(key)
      << "\n  prior " << prior_what << ": "
      << (prior_file != nullptr ? prior_file : "<unknown>") << ":" << prior_line
      << "  [" << fork_path(st, prior_proc) << "]"
      << "\n  now   " << cur_what << ": " << (file != nullptr ? file : "?")
      << ":" << line << "  [" << fork_path(st, current_proc(st)) << "]"
      << "\n  the two accesses are logically parallel (the prior accessor is"
      << "\n  in a P-bag) and at least one is a write: the program's result"
      << "\n  can depend on the schedule.\n";
  if (st.on_race == OnRace::kThrow) throw DeterminacyRace(out.str());
  std::fputs(out.str().c_str(), stderr);
  std::abort();
}

}  // namespace
}  // namespace detail

using detail::g_next_structure;
using detail::g_state;
using detail::kNone;
using detail::State;

bool active() noexcept {
  State* st = g_state.load(std::memory_order_relaxed);
  return st != nullptr && st->owner == std::this_thread::get_id();
}

Session::Session(OnRace on_race) : st_(nullptr) {
  if (g_state.load(std::memory_order_relaxed) != nullptr) {
    throw std::logic_error(
        "spbags::Session: sessions do not nest (one detector run at a time)");
  }
  st_ = new State;
  st_->on_race = on_race;
  st_->owner = std::this_thread::get_id();
  // The root procedure: its S-bag is bag 0 and stays an S-bag forever, so
  // top-level sequential code (oracle re-runs, the updater's sequential
  // phases) is serial with everything by construction.
  detail::make_bag(*st_, /*is_p=*/false);
  st_->procs.push_back({0, kNone, kNone, 0, 0});
  st_->stack.push_back(0);
  g_state.store(st_, std::memory_order_release);
}

Session::~Session() {
  g_state.store(nullptr, std::memory_order_release);
  delete st_;
}

std::uint64_t Session::races_detected() const noexcept { return st_->races; }

std::uint64_t Session::cells_tracked() const noexcept {
  return st_->cells.size();
}

std::uint64_t Session::procs_created() const noexcept {
  return st_->procs.size();
}

ForkScope::ForkScope() : live_(active()) {
  if (!live_) return;
  State& st = detail::state();
  detail::Proc& cur = st.procs[detail::current_proc(st)];
  ++cur.forks_started;
  cur.cur_branch = 0;
}

ForkScope::~ForkScope() {
  if (!live_ || !active()) return;
  State& st = detail::state();
  detail::sync_proc(st, detail::current_proc(st));
}

BranchScope::BranchScope() : live_(active()) {
  if (!live_) return;
  State& st = detail::state();
  const std::uint32_t parent = detail::current_proc(st);
  const std::uint32_t fork_index = st.procs[parent].forks_started - 1;
  const std::uint8_t which = st.procs[parent].cur_branch++;
  const std::uint32_t sbag = detail::make_bag(st, /*is_p=*/false);
  const auto id = static_cast<std::uint32_t>(st.procs.size());
  st.procs.push_back({sbag, kNone, parent, fork_index, which});
  st.stack.push_back(id);
}

BranchScope::~BranchScope() {
  if (!live_ || !active()) return;
  State& st = detail::state();
  const std::uint32_t child = detail::current_proc(st);
  st.stack.pop_back();
  // A well-formed branch has already synced all its forks; fold in any
  // pending P-bag (exception unwind) before returning the child's bag.
  detail::sync_proc(st, child);
  detail::Proc& parent = st.procs[detail::current_proc(st)];
  const std::uint32_t child_s = detail::find(st, st.procs[child].sbag);
  if (parent.pbag == kNone) {
    st.bags[child_s].is_p = true;
    parent.pbag = child_s;
  } else {
    parent.pbag =
        detail::unite(st, detail::find(st, parent.pbag), child_s,
                      /*is_p=*/true);
  }
}

void on_read(ShadowKey key, const char* file, int line) {
  State& st = detail::state();
  detail::Cell& c = st.cells[key.value];
  if (c.writer != kNone && detail::in_p_bag(st, c.writer)) {
    detail::report_race(st, "write-read", key, c.writer, c.w_file, c.w_line,
                        "write", file, line, "read");
  }
  // Keep a P-bag reader in place (it still races with future writes);
  // otherwise the current, serial reader becomes the recorded one.
  if (c.reader == kNone || !detail::in_p_bag(st, c.reader)) {
    c.reader = detail::current_proc(st);
    c.r_file = file;
    c.r_line = line;
  }
}

void on_write(ShadowKey key, const char* file, int line) {
  State& st = detail::state();
  detail::Cell& c = st.cells[key.value];
  if (c.reader != kNone && detail::in_p_bag(st, c.reader)) {
    detail::report_race(st, "read-write", key, c.reader, c.r_file, c.r_line,
                        "read", file, line, "write");
  }
  if (c.writer != kNone && detail::in_p_bag(st, c.writer)) {
    detail::report_race(st, "write-write", key, c.writer, c.w_file, c.w_line,
                        "write", file, line, "write");
  }
  c.writer = detail::current_proc(st);
  c.w_file = file;
  c.w_line = line;
}

void read_record(std::uint32_t sid, std::uint32_t v, std::uint32_t round,
                 const char* file, int line) {
  on_read(record_parent_cell(sid, v, round), file, line);
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(kMaxDegree); ++s) {
    on_read(record_child_cell(sid, v, round, s), file, line);
  }
}

void write_record(std::uint32_t sid, std::uint32_t v, std::uint32_t round,
                  const char* file, int line) {
  on_write(record_parent_cell(sid, v, round), file, line);
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(kMaxDegree); ++s) {
    on_write(record_child_cell(sid, v, round, s), file, line);
  }
}

void read_children(std::uint32_t sid, std::uint32_t v, std::uint32_t round,
                   const char* file, int line) {
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(kMaxDegree); ++s) {
    on_read(record_child_cell(sid, v, round, s), file, line);
  }
}

std::uint64_t new_buffer_id() noexcept {
  if (!active()) return 0;
  return ++detail::state().next_buffer;
}

std::uint32_t new_structure_id() noexcept {
  return g_next_structure.fetch_add(1, std::memory_order_relaxed);
}

std::string describe(ShadowKey key) {
  const auto space = static_cast<ShadowSpace>(key.value >> 60);
  const auto sid = static_cast<std::uint32_t>((key.value >> 50) & 0x3FFu);
  const auto v = static_cast<std::uint32_t>((key.value >> 18) & 0xFFFFFFFFu);
  const auto round = static_cast<std::uint32_t>((key.value >> 3) & 0x7FFFu);
  const auto slot = static_cast<std::uint32_t>(key.value & 0x7u);
  const auto low32 = static_cast<std::uint32_t>(key.value & 0xFFFFFFFFu);
  std::ostringstream out;
  switch (space) {
    case ShadowSpace::kRecordParent:
      out << "P/parent_slot of v=" << v << " round=" << round << " (structure "
          << sid << ")";
      break;
    case ShadowSpace::kRecordChild:
      out << "C[slot " << slot << "] of v=" << v << " round=" << round
          << " (structure " << sid << ")";
      break;
    case ShadowSpace::kRecordRounds:
      out << "round-record vector of v=" << v << " (structure " << sid << ")";
      break;
    case ShadowSpace::kDuration:
      out << "D of v=" << v << " (structure " << sid << ")";
      break;
    case ShadowSpace::kScratch: {
      static constexpr const char* kNames[] = {
          "construct.status", "update.mark_l",   "update.mark_lx",
          "update.status_g",  "update.old_leaf", "update.cand",
          "rc.events"};
      const auto array = (key.value >> 32) & 0x3Fu;
      const char* name =
          array < sizeof(kNames) / sizeof(kNames[0]) ? kNames[array] : "?";
      out << "scratch " << name << "[" << low32 << "]";
      break;
    }
    case ShadowSpace::kBuffer:
      out << "buffer #" << ((key.value >> 32) & 0x0FFFFFFFu) << " cell "
          << low32;
      break;
    default:
      out << "key 0x" << std::hex << key.value;
      break;
  }
  return out.str();
}

}  // namespace parct::analysis::spbags

#endif  // PARCT_RACE_DETECT
