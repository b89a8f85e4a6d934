#!/usr/bin/env python3
"""Builds and runs the BatchServer serving benchmark (see NOTES.md).

From the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The benchmark and libparct (from src/) are built with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when it is unset;
build output goes to standard error. Durability files and span dumps go
under .bench_state/. The last line of standard output is the JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build():
    bdir = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not ((bdir / "build.ninja").exists() or (bdir / "Makefile").exists()):
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return bdir


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    bdir = build()
    if bdir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([str(bdir / "perfbench_selftest")],
                              stdout=sys.stderr).returncode

    state = ROOT / ".bench_state"
    state.mkdir(exist_ok=True)
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--state-dir", str(state)]
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        rc = 1
    # A killed run leaves its durability directory behind.
    shutil.rmtree(state / f"{args.workload}-{proc.pid}", ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
