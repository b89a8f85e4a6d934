#!/usr/bin/env python3
"""Project-specific parallelism lint for the parct codebase.

Rules (see docs/STATIC_ANALYSIS.md):

  raw-thread      std::thread / pthread_create outside src/parallel/ —
                  all parallelism must flow through the fork-join runtime
                  so the SP-bags detector and the scheduler see it.
  raw-mutex       std::mutex / std::condition_variable / std::lock_guard /
                  std::unique_lock / std::scoped_lock in src/ outside
                  src/parallel/capability.hpp — locking must go through
                  the capability-annotated parct::Mutex / parct::CondVar /
                  parct::MutexLock wrappers so the Clang thread-safety
                  gate (docs/STATIC_ANALYSIS.md §3) sees every lock site;
                  a raw primitive is invisible to the analysis.
  mutable-global  namespace-scope mutable globals in src/ that are not
                  std::atomic / mutex / condition_variable / thread_local /
                  const / constexpr — unsynchronized globals are how
                  "works on my machine" races ship.
  volatile-sync   `volatile` used on shared state — volatile is not a
                  synchronization primitive in C++.
  shadow-write    indexed writes (`x[i] = ...`, `x[v][r] += ...`) inside a
                  parallel_for / parallel_for_blocked / adaptive_for /
                  fork2join body anywhere in src/ without a
                  PARCT_SHADOW_WRITE/WRITE_REC annotation on its line or
                  the four above — writes the SP-bags race detector cannot see
                  defeat the instrumentation. A write that is safe without
                  one carries an allow marker saying why.
  unbuilt-source  a src/ .cpp file not named in src/CMakeLists.txt — a
                  translation unit nothing compiles escapes the compiler,
                  the sanitizer builds and the thread-safety gate.
  vector-in-phase std::vector construction inside a parallel_for lambda or
                  a hot phase body (DynamicUpdater::apply/propagate,
                  randomized_contract) in src/contraction/ — hot-path
                  scratch must come from the Workspace / the *_into
                  primitives so steady-state rounds stay allocation-free
                  (docs/PERFORMANCE.md).
  snapshot-bypass reads of the live structures (c_, rcf_, agg_, updater_,
                  store_) inside the query-answering path of src/service/
                  (BatchServer::answer) — queries must only read the pinned
                  immutable Snapshot: the epoch's update has already moved
                  the live structure to the next version when they run
                  (docs/OBSERVABILITY.md §3a).
  adaptive-for    raw par::parallel_for / parallel_for_blocked calls in
                  src/contraction/ — frontier-sized loops must go through
                  par::adaptive_for so sub-cutover frontiers take the
                  inline serial fast path (docs/PERFORMANCE.md "Small-batch
                  fast path"); a raw call pays full fork/join scaffolding
                  on every tiny round.
  fault-macro     direct use of fault::detail::should_fire/stall or a bare
                  `#if PARCT_FAULT_INJECT` in src/ outside src/fault/ —
                  injection sites must go through PARCT_FAULT_POINT /
                  PARCT_FAULT_STALL, which compile to constants in an OFF
                  build; direct calls (or hand-rolled conditionals) leave
                  fault-registry traffic in production binaries
                  (docs/TESTING.md "Fault injection").
  durability-io   std::ofstream/std::fstream file writes in src/service/ or
                  src/durability/ outside the WAL/checkpoint writers
                  (durability/wal.cpp, durability/checkpoint.cpp) — durable
                  state must flow through those writers, which use fd-level
                  I/O with explicit fsync, CRC trailers, and the
                  temp-file-plus-rename commit protocol; a buffered ofstream
                  has no fsync and no atomicity, so a crash can leave a
                  torn file that recovery then trusts (docs/DURABILITY.md).

Suppression: a line (or the line above it) containing
`// parct-lint: allow(<rule>)` suppresses that rule for that line; the
marker doubles as an in-tree justification, so every suppression is
greppable and reviewed.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# shadow-write: an indexed write through any identifier — one or more
# subscripts, then an assignment that is not `==`.
INDEXED_WRITE = re.compile(
    r"\b[A-Za-z_]\w*\s*(\[[^\]]*\])+\s*(=(?!=)|\+=|-=|\*=|/=|"
    r"\|=|&=|\^=|<<=|>>=)"
)

# The annotation that makes a write visible to the detector, searched in
# the code (not the comments) of the write's line and the four above it.
SHADOW_ANNOTATION = re.compile(r"\bPARCT_SHADOW_WRITE(_REC)?\s*\(")
SHADOW_WINDOW = 4

# std::thread::id is plain bookkeeping data, not thread creation.
RAW_THREAD = re.compile(r"\bstd::thread\b(?!::)|\bpthread_create\b")

# Raw locking primitives: only src/parallel/capability.hpp (the annotated
# wrapper layer) may spell these in src/.
RAW_MUTEX = re.compile(
    r"\bstd::(recursive_|shared_|timed_)?mutex\b|"
    r"\bstd::condition_variable(_any)?\b|"
    r"\bstd::(lock_guard|unique_lock|scoped_lock)\b"
)
CAPABILITY_HEADER = "src/parallel/capability.hpp"

VOLATILE = re.compile(r"\bvolatile\b")

# Namespace-scope mutable globals: a declaration at zero brace depth (or
# inside a plain namespace) that is not const/constexpr/atomic/etc.
GLOBAL_DECL = re.compile(
    r"^(static\s+)?(?!const\b|constexpr\b|inline\s+const|using\b|typedef\b|"
    r"namespace\b|class\b|struct\b|enum\b|template\b|extern\b|return\b|"
    r"#|//|/\*)"
    r"(?P<type>[A-Za-z_][A-Za-z0-9_:<>,\s\*&]*?)\s+"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(=|\{|;)"
)

ALLOWED_GLOBAL_TYPES = re.compile(
    r"std::atomic\b|std::mutex\b|std::shared_mutex\b|"
    r"std::condition_variable\b|std::once_flag\b|thread_local\b|"
    r"\b(parct::)?(Mutex|CondVar)\b|"
    r"\bconst\b|\bconstexpr\b"
)

ALLOW_MARKER = re.compile(r"//\s*parct-lint:\s*allow\((?P<rules>[a-z\-,\s]+)\)")

# vector-in-phase: a std::vector declaration/construction (references are
# fine — they don't allocate). Enforced only inside parallel_for lambdas
# and the hot phase bodies of src/contraction/.
VECTOR_CONSTRUCT = re.compile(r"\bstd::vector\s*<[^;()]*>(?!\s*&)\s*\w+\s*[;({=]")

# The hot phase bodies: one Propagate round, one apply, one contraction
# round. A match on a line without ';' is a definition (call sites end the
# statement); the body extends until the brace depth returns to the
# signature's depth.
HOT_PHASE_FN = re.compile(
    r"\b(DynamicUpdater::(apply|propagate)|randomized_contract)\s*\("
)

# The serving layer's query-answering path: everything reachable from
# BatchServer::answer runs after the epoch's update has moved the live
# structure past the pinned version, so it may only read the pinned
# Snapshot.
QUERY_PATH_FN = re.compile(r"\b(BatchServer::)?answer\s*\(")

# Live (mutable, update-owned) members of the serving layer. `snap`/pinned
# snapshot reads are the sanctioned alternative.
LIVE_STRUCTURE = re.compile(r"\b(c_|rcf_|agg_|updater_|store_)\s*\.")

# fault-macro: the registry entry points and the build-flag conditional.
# Only the PARCT_FAULT_POINT/PARCT_FAULT_STALL macros (and src/fault/
# itself) may reference either — that is what guarantees an OFF build
# contains no trace of the injection sites.
FAULT_DETAIL = re.compile(r"\bfault::detail::(should_fire|stall)\b")
FAULT_IFDEF = re.compile(r"#\s*(el)?if(def)?\b.*\bPARCT_FAULT_INJECT\b")

# adaptive-for: raw parallel_for call sites (not #includes — those carry no
# '(' after the name). src/parallel/ itself implements both spellings.
RAW_PARALLEL_FOR = re.compile(r"\bparallel_for(_blocked)?\s*\(")

# durability-io: write-capable std file streams. std::ostream/istream
# references (the serialization APIs) are fine — only the file-opening
# stream types bypass the fd-level durability protocol. Reading with
# std::ifstream is allowed: recovery validates what it reads via CRCs.
RAW_FILE_WRITE = re.compile(r"\bstd::(ofstream|fstream)\b")

# The sanctioned writers: fd-level I/O + fsync + atomic rename live here.
DURABILITY_WRITERS = {
    "src/durability/wal.cpp",
    "src/durability/checkpoint.cpp",
}

# Loop constructs that open a tracked lambda extent for the shadow-write /
# vector-in-phase rules; adaptive_for bodies are the same bodies
# parallel_for would run, so the rules must keep applying inside them.
TRACKED_LOOP = re.compile(
    r"\b(parallel_for(_blocked)?|adaptive_for|fork2join)\s*\("
)


def allowed(rule: str, lines: list[str], idx: int) -> bool:
    """True if line idx or the line above carries an allow marker for rule."""
    for j in (idx, idx - 1):
        if 0 <= j < len(lines):
            m = ALLOW_MARKER.search(lines[j])
            if m and rule in [r.strip() for r in m.group("rules").split(",")]:
                return True
    return False


def strip_strings(line: str) -> str:
    """Blanks out string/char literals so their contents never match rules."""
    return re.sub(r'"(\\.|[^"\\])*"|\'(\\.|[^\'\\])*\'', '""', line)


def lint_file(path: Path, findings: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        return
    in_src = rel.startswith("src/")
    in_contraction = rel.startswith("src/contraction/")
    in_service = rel.startswith("src/service/")
    depth_stack: list[int] = []  # brace depth at each open tracked loop
    code_lines: list[str] = []  # comment-free code of every line so far
    depth = 0
    in_block_comment = False
    prev_code = ""  # last non-blank code line, for continuation detection
    hot_depth: int | None = None  # brace depth of a hot phase fn signature
    hot_entered = False  # inside its body (depth went above hot_depth)
    query_depth: int | None = None  # brace depth of a query-path signature
    query_entered = False

    for idx, raw in enumerate(lines):
        line = strip_strings(raw)
        code = line.split("//")[0]
        if in_block_comment:
            if "*/" in code:
                code = code.split("*/", 1)[1]
                in_block_comment = False
            else:
                code_lines.append("")
                continue
        if "/*" in code and "*/" not in code:
            code = code.split("/*", 1)[0]
            in_block_comment = True
        code = re.sub(r"/\*.*?\*/", "", code)
        code_lines.append(code)

        loc = f"{rel}:{idx + 1}"
        # Inside a tracked loop body: an enclosing one, or one this line
        # opens with its lambda's brace.
        loop = TRACKED_LOOP.search(code) if in_src else None
        in_loop = bool(depth_stack) or (
            loop is not None and "{" in code[loop.end() :]
        )

        # raw-thread: everywhere except src/parallel/ (the runtime owns
        # thread creation) and tools/tests that exercise the runtime.
        if RAW_THREAD.search(code) and not rel.startswith("src/parallel/"):
            if not allowed("raw-thread", lines, idx):
                findings.append(
                    f"{loc}: raw-thread: std::thread/pthread_create outside "
                    "src/parallel/ — use the fork-join runtime"
                )

        # raw-mutex: locking outside the capability wrapper layer.
        if (
            rel.startswith("src/")
            and rel != CAPABILITY_HEADER
            and RAW_MUTEX.search(code)
        ):
            if not allowed("raw-mutex", lines, idx):
                findings.append(
                    f"{loc}: raw-mutex: raw std locking primitive — use "
                    "parct::Mutex/CondVar/MutexLock "
                    "(parallel/capability.hpp) so the thread-safety "
                    "analysis sees the lock site"
                )

        # volatile-sync: volatile anywhere in src/ is suspect.
        if rel.startswith("src/") and VOLATILE.search(code):
            if not allowed("volatile-sync", lines, idx):
                findings.append(
                    f"{loc}: volatile-sync: volatile is not a synchronization "
                    "primitive — use std::atomic"
                )

        # mutable-global: only at namespace scope in src/ (depth counts
        # function/class braces; namespaces keep depth 0 via the heuristic
        # below).
        # A line whose predecessor ends mid-statement (",", "(", operators)
        # is a continuation of a declaration, not a fresh global.
        continuation = prev_code.rstrip().endswith((",", "(", "&&", "||", "+"))
        if (
            rel.startswith("src/")
            and depth == 0
            and not continuation
            and GLOBAL_DECL.match(code.strip())
            and not ALLOWED_GLOBAL_TYPES.search(code)
            and ";" in code
            and "(" not in code.split("=")[0]  # not a function decl
        ):
            if not allowed("mutable-global", lines, idx):
                findings.append(
                    f"{loc}: mutable-global: namespace-scope mutable state "
                    "must be std::atomic, a mutex, thread_local, or const"
                )

        # vector-in-phase: std::vector construction inside a parallel_for
        # lambda or a hot phase body in src/contraction/.
        if (
            in_contraction
            and VECTOR_CONSTRUCT.search(code)
            and (in_loop or (hot_depth is not None and hot_entered))
        ):
            if not allowed("vector-in-phase", lines, idx):
                findings.append(
                    f"{loc}: vector-in-phase: std::vector constructed on the "
                    "hot path — lease scratch from the Workspace or use a "
                    "*_into primitive (docs/PERFORMANCE.md)"
                )

        # shadow-write: indexed writes inside tracked loop bodies in src/.
        if in_loop and INDEXED_WRITE.search(code):
            window = code_lines[max(0, idx - SHADOW_WINDOW) :]
            if not any(SHADOW_ANNOTATION.search(w) for w in window):
                if not allowed("shadow-write", lines, idx):
                    findings.append(
                        f"{loc}: shadow-write: indexed write inside a "
                        "parallel loop body without a PARCT_SHADOW_WRITE "
                        f"within {SHADOW_WINDOW} lines — annotate it, or "
                        "allow it with the reason it is safe"
                    )

        # snapshot-bypass: live-structure reads inside the serving query
        # path (which runs after the epoch's update moved the live
        # structure past the pinned version).
        if (
            in_service
            and query_depth is not None
            and query_entered
            and LIVE_STRUCTURE.search(code)
        ):
            if not allowed("snapshot-bypass", lines, idx):
                findings.append(
                    f"{loc}: snapshot-bypass: query path reads the live "
                    "structure — answer queries from the pinned Snapshot "
                    "only (the live one is already at the next version)"
                )

        # fault-macro: injection sites outside src/fault/ must use the
        # macros, never the registry or the build flag directly.
        if (
            rel.startswith("src/")
            and not rel.startswith("src/fault/")
            and (FAULT_DETAIL.search(code) or FAULT_IFDEF.search(code))
        ):
            if not allowed("fault-macro", lines, idx):
                findings.append(
                    f"{loc}: fault-macro: use PARCT_FAULT_POINT/"
                    "PARCT_FAULT_STALL — direct fault::detail calls or "
                    "PARCT_FAULT_INJECT conditionals do not compile away in "
                    "OFF builds"
                )

        # durability-io: file-stream writes in the serving/durability
        # layers outside the sanctioned WAL/checkpoint writers.
        if (
            (in_service or rel.startswith("src/durability/"))
            and rel not in DURABILITY_WRITERS
            and RAW_FILE_WRITE.search(code)
        ):
            if not allowed("durability-io", lines, idx):
                findings.append(
                    f"{loc}: durability-io: raw std::ofstream/fstream in the "
                    "serving/durability layer — durable writes must go "
                    "through the WAL/checkpoint writers (fd-level I/O, "
                    "fsync, atomic rename; docs/DURABILITY.md)"
                )

        # adaptive-for: frontier loops in src/contraction/ must use the
        # size-adaptive spelling.
        if in_contraction and RAW_PARALLEL_FOR.search(code):
            if not allowed("adaptive-for", lines, idx):
                findings.append(
                    f"{loc}: adaptive-for: raw parallel_for in "
                    "src/contraction/ — use par::adaptive_for so "
                    "sub-cutover frontiers take the serial fast path "
                    "(docs/PERFORMANCE.md)"
                )

        # Track hot-phase function extents (definitions only: call sites
        # end their statement with ';').
        if (
            in_contraction
            and hot_depth is None
            and HOT_PHASE_FN.search(code)
            and ";" not in code
        ):
            hot_depth = depth
            hot_entered = False

        # Track the serving query-path extents the same way.
        if (
            in_service
            and query_depth is None
            and QUERY_PATH_FN.search(code)
            and ";" not in code
        ):
            query_depth = depth
            query_entered = False

        # Track loop lambda extents by brace depth.
        if loop is not None:
            depth_stack.append(depth)
        opens = code.count("{")
        closes = code.count("}")
        # Namespace braces should not count toward "inside a function".
        if re.match(r"\s*namespace\b", code) and opens:
            opens -= 1
            # A one-line `namespace foo { ... }` (e.g. a forward
            # declaration) closes on the same line.
            if closes:
                closes -= 1
        elif re.match(r"\s*}\s*//\s*namespace", line) and closes:
            closes -= 1
        depth += opens - closes
        while depth_stack and depth < depth_stack[-1]:
            depth_stack.pop()
        # The call's statement ends here (not a `g(0); },` inside one of
        # fork2join's lambdas).
        if (
            depth_stack
            and depth == depth_stack[-1]
            and code.rstrip().endswith(");")
        ):
            depth_stack.pop()
        if hot_depth is not None:
            if depth > hot_depth:
                hot_entered = True
            elif hot_entered and depth <= hot_depth:
                hot_depth = None
                hot_entered = False
        if query_depth is not None:
            if depth > query_depth:
                query_entered = True
            elif query_entered and depth <= query_depth:
                query_depth = None
                query_entered = False
        if code.strip():
            prev_code = code


def lint_sources_built(findings: list[str]) -> None:
    """unbuilt-source: every src/ .cpp file is named in src/CMakeLists.txt."""
    cmake = (REPO / "src" / "CMakeLists.txt").read_text(encoding="utf-8")
    listed = set(re.findall(r"[\w./-]+\.cpp\b", cmake))
    for path in sorted((REPO / "src").rglob("*.cpp")):
        rel = path.relative_to(REPO / "src").as_posix()
        if rel not in listed:
            findings.append(
                f"src/{rel}: unbuilt-source: not named in src/CMakeLists.txt "
                "— no build compiles it, so no compiled-in analysis covers it"
            )


def self_test() -> int:
    """Checks the rules against small positive/negative fixtures."""
    import tempfile

    cases = [
        # (relpath, content, expected rule or None)
        (
            "src/foo/bar.cpp",
            "#include <thread>\nvoid f() { std::thread t([]{}); }\n",
            "raw-thread",
        ),
        (
            "src/parallel/scheduler.cpp",
            "#include <thread>\nvoid f() { std::thread t([]{}); }\n",
            None,
        ),
        (
            "src/foo/bar.cpp",
            "// parct-lint: allow(raw-thread) reason: test fixture\n"
            "void f() { std::thread t([]{}); }\n",
            None,
        ),
        (
            "src/foo/bar.cpp",
            "void f() {\n"
            "  std::lock_guard<std::mutex> lk(m);\n"
            "}\n",
            "raw-mutex",
        ),
        (
            "src/foo/bar.hpp",
            "class C {\n"
            "  std::condition_variable cv_;\n"
            "};\n",
            "raw-mutex",
        ),
        (
            # The wrapper layer itself is the one sanctioned location.
            "src/parallel/capability.hpp",
            "class Mutex {\n"
            "  std::mutex mu_;\n"
            "};\n",
            None,
        ),
        (
            "src/foo/bar.cpp",
            "void f() {\n"
            "  // parct-lint: allow(raw-mutex) reason: test fixture\n"
            "  std::unique_lock<std::mutex> lk(m);\n"
            "}\n",
            None,
        ),
        (
            # The annotated wrappers are the sanctioned spelling.
            "src/foo/bar.cpp",
            "void f() {\n"
            "  MutexLock lk(mu_);\n"
            "  cv_.notify_all();\n"
            "}\n",
            None,
        ),
        (
            # A global parct::Mutex is a synchronization primitive, not a
            # mutable-global finding (the scheduler's lifecycle lock).
            "src/foo/g.cpp",
            "Mutex g_lifecycle_mu;\n",
            None,
        ),
        ("src/foo/g.cpp", "int g_counter = 0;\n", "mutable-global"),
        ("src/foo/g.cpp", "std::atomic<int> g_counter{0};\n", None),
        ("src/foo/g.cpp", "constexpr int kMax = 4;\n", None),
        ("src/foo/g.cpp", "const int kMax = 4;\n", None),
        ("src/foo/v.cpp", "volatile int flag;\n", "volatile-sync"),
        (
            "src/primitives/scan.hpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t b) {\n"
            "    sums[b] = 1;\n"
            "  });\n"
            "}\n",
            "shadow-write",
        ),
        (
            "src/primitives/scan.hpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t b) {\n"
            "    PARCT_SHADOW_WRITE(k);\n"
            "    sums[b] = 1;\n"
            "  });\n"
            "}\n",
            None,
        ),
        (
            "src/contraction/foo.cpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t k) {\n"
            "    std::vector<int> tmp(4);\n"
            "  });\n"
            "}\n",
            "vector-in-phase",
        ),
        (
            "src/contraction/foo.cpp",
            "void DynamicUpdater::propagate(std::uint32_t i) {\n"
            "  std::vector<VertexId> next;\n"
            "}\n",
            "vector-in-phase",
        ),
        (
            "src/contraction/foo.cpp",
            "void DynamicUpdater::propagate(std::uint32_t i) {\n"
            "  // parct-lint: allow(vector-in-phase) reason: test fixture\n"
            "  std::vector<VertexId> next;\n"
            "}\n",
            None,
        ),
        (
            # A reference binding does not allocate; a helper outside the
            # hot functions may build vectors freely.
            "src/contraction/foo.cpp",
            "void DynamicUpdater::propagate(std::uint32_t i) {\n"
            "  const std::vector<VertexId>& view = lset_;\n"
            "}\n"
            "void helper() {\n"
            "  std::vector<int> fine;\n"
            "}\n",
            None,
        ),
        (
            # Call sites of apply() do not open a hot extent.
            "src/contraction/foo.cpp",
            "void driver(DynamicUpdater& u, const forest::ChangeSet& m) {\n"
            "  u.apply(m);\n"
            "  std::vector<int> fine;\n"
            "}\n",
            None,
        ),
        (
            # Raw parallel_for in src/contraction/ must be adaptive_for.
            "src/contraction/foo.cpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t k) { g(k); });\n"
            "}\n",
            "adaptive-for",
        ),
        (
            "src/contraction/foo.cpp",
            "void f() {\n"
            "  // parct-lint: allow(adaptive-for) reason: test fixture\n"
            "  par::parallel_for(0, n, [&](std::size_t k) { g(k); });\n"
            "}\n",
            None,
        ),
        (
            # The adaptive spelling is the sanctioned one; the #include of
            # parallel_for.hpp (no call parens) is not a finding either.
            "src/contraction/foo.cpp",
            '#include "parallel/parallel_for.hpp"\n'
            "void f() {\n"
            "  par::adaptive_for(0, n, [&](std::size_t k) { g(k); });\n"
            "}\n",
            None,
        ),
        (
            # Outside src/contraction/ raw parallel_for stays legal.
            "src/rc/foo.cpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t k) { g(k); });\n"
            "}\n",
            None,
        ),
        (
            # adaptive_for bodies are tracked lambda extents: the
            # vector-in-phase rule keeps applying inside them.
            "src/contraction/foo.cpp",
            "void f() {\n"
            "  par::adaptive_for(0, n, [&](std::size_t k) {\n"
            "    std::vector<int> tmp(4);\n"
            "  });\n"
            "}\n",
            "vector-in-phase",
        ),
        (
            # ...and so does shadow-write.
            "src/primitives/scan.hpp",
            "void f() {\n"
            "  par::adaptive_for(0, n, [&](std::size_t b) {\n"
            "    sums[b] = 1;\n"
            "  });\n"
            "}\n",
            "shadow-write",
        ),
        (
            # shadow-write covers any indexed write in an adaptive_for body,
            # not only a fixed list of array names.
            "src/contraction/dynamic_update.cpp",
            "void f() {\n"
            "  par::adaptive_for(0, m.size(), [&](std::size_t k) {\n"
            "    const VertexId v = m[k];\n"
            "    xset_[k] = {v, 0};\n"
            "  });\n"
            "}\n",
            "shadow-write",
        ),
        (
            # fork2join bodies are tracked, one-line lambdas included.
            "src/primitives/sort.hpp",
            "void f() {\n"
            "  par::fork2join([&] { a[0] = 1; }, [&] { a[1] = 2; });\n"
            "}\n",
            "shadow-write",
        ),
        (
            "src/primitives/sort.hpp",
            "void f() {\n"
            "  par::fork2join(\n"
            "      [&] { g(0); },\n"
            "      [&] {\n"
            "        out[1] += 2;\n"
            "      });\n"
            "}\n",
            "shadow-write",
        ),
        (
            # Every file in src/ is covered; nested subscripts are writes.
            "src/rc/foo.hpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t k) {\n"
            "    vals_[v][i] = combine(vals_[v][i - 1], x);\n"
            "  });\n"
            "}\n",
            "shadow-write",
        ),
        (
            # The annotation counts only as code, not inside a comment.
            "src/rc/foo.hpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t i) {\n"
            "    // PARCT_SHADOW_WRITE(analysis::buffer_cell(buf, i));\n"
            "    out[i] = g(i);\n"
            "  });\n"
            "}\n",
            "shadow-write",
        ),
        (
            # Record-level annotations satisfy the rule; comparisons,
            # commented-out writes and writes after the loop closes are
            # not findings.
            "src/rc/foo.hpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t v) {\n"
            "    PARCT_SHADOW_WRITE_REC(sid, v, r);\n"
            "    recs[v] = make(v);\n"
            "    if (out[v] == x) count();\n"
            "    // out[v] = g(v);\n"
            "  });\n"
            "  out[0] = 1;\n"
            "}\n",
            None,
        ),
        (
            "src/rc/foo.hpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t i) {\n"
            "    // parct-lint: allow(shadow-write) reason: test fixture\n"
            "    out[i] = g(i);\n"
            "  });\n"
            "}\n",
            None,
        ),
        (
            # Outside src/ the rule is silent.
            "tools/foo.cpp",
            "void f() {\n"
            "  par::parallel_for(0, n, [&](std::size_t i) { out[i] = 1; });\n"
            "}\n",
            None,
        ),
        (
            # Query path reading the live RCForest instead of the snapshot.
            "src/service/foo.cpp",
            "QueryResult BatchServer::answer(const QueryBatch& q,\n"
            "                                const Snapshot& snap) const {\n"
            "  out[i] = rcf_.root(q.roots[i]);\n"
            "}\n",
            "snapshot-bypass",
        ),
        (
            # Reading the pinned snapshot is the sanctioned path.
            "src/service/foo.cpp",
            "QueryResult BatchServer::answer(const QueryBatch& q,\n"
            "                                const Snapshot& snap) const {\n"
            "  out[i] = snap.root(q.roots[i]);\n"
            "}\n",
            None,
        ),
        (
            # Live-structure access outside the query path (the update/
            # publish side) is the point of those members — no finding.
            "src/service/foo.cpp",
            "bool BatchServer::process_epoch() {\n"
            "  rcf_.refresh(touched);\n"
            "  agg_.apply_update();\n"
            "}\n",
            None,
        ),
        (
            "src/service/foo.cpp",
            "QueryResult BatchServer::answer(const QueryBatch& q,\n"
            "                                const Snapshot& snap) const {\n"
            "  // parct-lint: allow(snapshot-bypass) reason: test fixture\n"
            "  out[i] = rcf_.root(q.roots[i]);\n"
            "}\n",
            None,
        ),
        (
            # Direct registry call bypasses the compile-away macros.
            "src/foo/hot.cpp",
            "void f() {\n"
            "  if (fault::detail::should_fire(fault::Site::kEpochApply)) {\n"
            "    abort_epoch();\n"
            "  }\n"
            "}\n",
            "fault-macro",
        ),
        (
            # Hand-rolled conditional on the build flag, same problem.
            "src/foo/hot.cpp",
            "#if PARCT_FAULT_INJECT\n"
            "void maybe_fail();\n"
            "#endif\n",
            "fault-macro",
        ),
        (
            # The macros are the sanctioned site spelling.
            "src/foo/hot.cpp",
            "void f() {\n"
            "  if (PARCT_FAULT_POINT(fault::Site::kEpochApply)) {\n"
            "    throw fault::InjectedFault(fault::Site::kEpochApply);\n"
            "  }\n"
            "  PARCT_FAULT_STALL(fault::Site::kSchedulerSteal);\n"
            "}\n",
            None,
        ),
        (
            # src/fault/ itself implements the registry — exempt.
            "src/fault/fault_injection.cpp",
            "#if PARCT_FAULT_INJECT\n"
            "bool detail::should_fire(Site s) noexcept { return false; }\n"
            "#endif\n",
            None,
        ),
        (
            "src/foo/hot.cpp",
            "// parct-lint: allow(fault-macro) reason: test fixture\n"
            "bool probe() { return fault::detail::should_fire(s); }\n",
            None,
        ),
        (
            # An ofstream in the serving layer bypasses the WAL/checkpoint
            # writers' fsync + atomic-rename protocol.
            "src/service/foo.cpp",
            "void f() {\n"
            '  std::ofstream out("state.bin", std::ios::binary);\n'
            "}\n",
            "durability-io",
        ),
        (
            # ...and so does one in the durability layer itself, outside
            # the sanctioned writer files.
            "src/durability/manager.cpp",
            "void f() {\n"
            '  std::fstream out("wal.log");\n'
            "}\n",
            "durability-io",
        ),
        (
            # The writer files are the sanctioned location.
            "src/durability/checkpoint.cpp",
            "void f() {\n"
            '  std::ofstream probe("x");\n'
            "}\n",
            None,
        ),
        (
            # Reading is fine — recovery CRC-checks what it reads.
            "src/durability/manager.cpp",
            "void f() {\n"
            '  std::ifstream in("checkpoint.ckpt", std::ios::binary);\n'
            "}\n",
            None,
        ),
        (
            # std::ostream& serialization APIs are not file writes.
            "src/service/foo.cpp",
            "void save_thing(std::ostream& out);\n",
            None,
        ),
        (
            # Outside the serving/durability layers the rule is silent
            # (tools and benchmarks write ordinary reports).
            "src/contraction/foo.cpp",
            "void f() {\n"
            '  std::ofstream out("report.txt");\n'
            "}\n",
            None,
        ),
        (
            "src/service/foo.cpp",
            "void f() {\n"
            "  // parct-lint: allow(durability-io) reason: test fixture\n"
            '  std::ofstream out("debug.dump");\n'
            "}\n",
            None,
        ),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        global REPO
        saved_repo = REPO
        REPO = Path(tmp)
        try:
            for i, (rel, content, expect) in enumerate(cases):
                p = Path(tmp) / rel
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_text(content)
                findings: list[str] = []
                lint_file(p, findings)
                hit = findings[0].split(": ")[1].rstrip(":") if findings else None
                ok = (expect is None and not findings) or (
                    expect is not None and any(expect in f for f in findings)
                )
                if not ok:
                    failures += 1
                    print(
                        f"self-test case {i} FAILED: expected {expect}, "
                        f"got {hit} ({findings})"
                    )
                p.unlink()
            # unbuilt-source: b.cpp is missing from src/CMakeLists.txt.
            (Path(tmp) / "src" / "CMakeLists.txt").write_text(
                "add_library(parct\n  rc/a.cpp\n)\n"
            )
            for name in ("a", "b"):
                (Path(tmp) / "src" / "rc" / f"{name}.cpp").write_text("\n")
            findings = []
            lint_sources_built(findings)
            if len(findings) != 1 or "rc/b.cpp: unbuilt-source" not in findings[0]:
                failures += 1
                print(f"self-test unbuilt-source case FAILED: {findings}")
        finally:
            REPO = saved_repo
    if failures:
        return 1
    print("lint_parallel.py self-test: all cases pass")
    return 0


def main(argv: list[str]) -> int:
    if "--self-test" in argv:
        return self_test()
    roots = [REPO / "src", REPO / "tools"]
    findings: list[str] = []
    lint_sources_built(findings)
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.suffix in {".cpp", ".hpp", ".h", ".cc"}:
                lint_file(path, findings)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_parallel.py: {len(findings)} finding(s)")
        return 1
    print("lint_parallel.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
