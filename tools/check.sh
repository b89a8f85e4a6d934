#!/usr/bin/env bash
# One-script local runner for the parct static-analysis gate
# (docs/STATIC_ANALYSIS.md): clang-tidy over the exported compile
# commands, cppcheck over src/, the Clang thread-safety gate (capability
# annotations, docs/STATIC_ANALYSIS.md §3), and the project lint
# (lint_parallel.py, which includes the shadow-annotation rule).
#
#   tools/check.sh                 # run what is installed, skip the rest
#   tools/check.sh --require-tools # CI mode: a missing tool is a failure
#
# Environment:
#   PARCT_CHECK_BUILD_DIR  analysis build dir (default: ./build-analysis)
#   PARCT_CHECK_JOBS       parallelism for clang-tidy/cppcheck/clang
#                          (default: nproc)
#
# Exit status: 0 all run checks clean, 1 findings, 2 missing tools under
# --require-tools. A per-check summary table prints either way.
set -u -o pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${PARCT_CHECK_BUILD_DIR:-$REPO/build-analysis}"
JOBS="${PARCT_CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}"
REQUIRE_TOOLS=0
[ "${1:-}" = "--require-tools" ] && REQUIRE_TOOLS=1

failures=0
skipped=0
SUMMARY_NAMES=()
SUMMARY_RESULTS=()

record() {  # record <check-name> <pass|FAIL|skipped>
  SUMMARY_NAMES+=("$1")
  SUMMARY_RESULTS+=("$2")
  case "$2" in
    FAIL) failures=1 ;;
    skipped) skipped=$((skipped + 1)) ;;
  esac
}

have() { command -v "$1" >/dev/null 2>&1; }

missing_tool() {
  if [ "$REQUIRE_TOOLS" -eq 1 ]; then
    echo "check.sh: REQUIRED tool '$1' not found" >&2
    exit 2
  fi
  echo "check.sh: '$1' not installed locally — skipping (CI runs it)"
  record "$2" skipped
}

# --- compile database (needed by clang-tidy; cheap to regenerate) -------
if have clang-tidy || have cppcheck; then
  cmake -B "$BUILD_DIR" -S "$REPO" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || exit 1
fi

# --- clang-tidy (profile: .clang-tidy; warnings are errors) -------------
if have clang-tidy; then
  echo "== clang-tidy =="
  mapfile -t TUS < <(find "$REPO/src" "$REPO/tools" -name '*.cpp' | sort)
  tidy_ok=pass
  if have run-clang-tidy; then
    run-clang-tidy -p "$BUILD_DIR" -j "$JOBS" -quiet "${TUS[@]}" \
      || tidy_ok=FAIL
  else
    clang-tidy -p "$BUILD_DIR" --quiet "${TUS[@]}" || tidy_ok=FAIL
  fi
  record clang-tidy "$tidy_ok"
else
  missing_tool clang-tidy clang-tidy
fi

# --- cppcheck -----------------------------------------------------------
if have cppcheck; then
  echo "== cppcheck =="
  # The build dir caches whole-program analysis state across runs; CI
  # restores it from the actions cache keyed on CMakeLists + compiler.
  mkdir -p "$BUILD_DIR/cppcheck"
  cc_ok=pass
  cppcheck --enable=warning,performance,portability \
    --error-exitcode=1 --inline-suppr --quiet -j "$JOBS" \
    --cppcheck-build-dir="$BUILD_DIR/cppcheck" \
    --suppressions-list="$REPO/tools/cppcheck-suppressions.txt" \
    --std=c++20 -I "$REPO/src" \
    -DPARCT_RACE_DETECT=1 \
    "$REPO/src" || cc_ok=FAIL
  record cppcheck "$cc_ok"
else
  missing_tool cppcheck cppcheck
fi

# --- thread-safety (Clang capability analysis; STATIC_ANALYSIS.md §3) ---
if have clang++; then
  echo "== thread-safety (clang++ -Werror=thread-safety) =="
  TS_FLAGS=(-std=c++20 -fsyntax-only -I "$REPO/src"
    -DPARCT_RACE_DETECT=1 -DPARCT_FAULT_INJECT=1
    -Wthread-safety -Wthread-safety-beta
    -Werror=thread-safety -Werror=thread-safety-beta)
  ts_ok=pass
  find "$REPO/src" -name '*.cpp' -print0 \
    | xargs -0 -P "$JOBS" -n 1 clang++ "${TS_FLAGS[@]}" || ts_ok=FAIL
  # Gate liveness: the probe must compile clean as-is and must FAIL with
  # each deliberate violation enabled — otherwise the gate checks nothing.
  clang++ "${TS_FLAGS[@]}" "$REPO/tools/thread_safety_probe.cpp" \
    || ts_ok=FAIL
  for violation in PARCT_PROBE_UNGUARDED PARCT_PROBE_DOUBLE_ACQUIRE; do
    if clang++ "${TS_FLAGS[@]}" "-D$violation" \
        "$REPO/tools/thread_safety_probe.cpp" 2>/dev/null; then
      echo "check.sh: probe violation $violation COMPILED — gate is dead" >&2
      ts_ok=FAIL
    fi
  done
  record thread-safety "$ts_ok"
else
  missing_tool clang++ thread-safety
fi

# --- project lint (always available: python3 only) ----------------------
echo "== lint_parallel.py =="
lint_ok=pass
python3 "$REPO/tools/lint_parallel.py" --self-test || lint_ok=FAIL
python3 "$REPO/tools/lint_parallel.py" || lint_ok=FAIL
record lint-parallel "$lint_ok"

# --- durability smoke (mirrors the `durability` CI job's CLI gate) -------
# The full chaos-kill matrix needs a -DPARCT_FAULT_INJECT=ON build and runs
# in CI (ctest -L 'durability|chaos'); locally this row drives the CLI
# checkpoint -> restore round trip against any existing build's parct_cli
# and requires the restored structure to be byte-identical
# (docs/DURABILITY.md).
# Prefer the canonical build dir; older build-* trees may carry a CLI
# from before the checkpoint/restore subcommands existed.
CLI=""
for d in "$REPO"/build/tools/parct_cli "$REPO"/build*/tools/parct_cli; do
  [ -x "$d" ] && CLI="$d" && break
done
if [ -n "$CLI" ]; then
  echo "== durability smoke ($CLI) =="
  dur_ok=pass
  DUR_TMP="$(mktemp -d)"
  { "$CLI" gen 2000 0.5 7 "$DUR_TMP/t.parct" \
      && "$CLI" checkpoint "$DUR_TMP/t.parct" "$DUR_TMP/ckpt" \
      && "$CLI" restore "$DUR_TMP/ckpt" "$DUR_TMP/restored.parct" \
      && cmp "$DUR_TMP/t.parct" "$DUR_TMP/restored.parct"; } || dur_ok=FAIL
  rm -rf "$DUR_TMP"
  record durability-smoke "$dur_ok"
else
  echo "check.sh: no built parct_cli found — skipping durability smoke"
  record durability-smoke skipped
fi

# --- summary ------------------------------------------------------------
echo
echo "check.sh summary:"
for i in "${!SUMMARY_NAMES[@]}"; do
  printf '  %-16s %s\n' "${SUMMARY_NAMES[$i]}" "${SUMMARY_RESULTS[$i]}"
done
echo
if [ "$failures" -ne 0 ]; then
  echo "check.sh: FAILURES (see above)"
  exit 1
fi
if [ "$skipped" -ne 0 ]; then
  echo "check.sh: clean ($skipped tool(s) skipped locally)"
else
  echo "check.sh: clean"
fi
