#!/usr/bin/env python3
"""Steadiness runner for the serving benchmark (see NOTES.md).

Repeats each workload N times with seeds seed, seed+1, ..., alternating
the order of the workloads between rounds, and prints for every metric
the median, the quartiles and the spread (interquartile range over the
median) next to the bound BENCHMARK.json gives it. It also prints the
spread of the ungated tail latencies. From the root of a checkout:

  python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seconds S]
                              [--held-out] [--trace 1]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAILS = ("service.update_p99_us", "service.query_p99_us",
         "service.generator_late_us")
# Seeds of record: claims are measured from DEFAULT_SEED and must also hold
# from HELD_OUT_SEED, which is not used while a change is written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7001


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("PERFBENCH-INFO "):
            info = json.loads(line[len("PERFBENCH-INFO "):])
    return result, info, wall


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the first round; round i uses seed + i")
    p.add_argument("--held-out", action="store_true",
                   help=f"start from the held-out seed {HELD_OUT_SEED}")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if args.held_out:
        args.seed = HELD_OUT_SEED
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    values = {w: {} for w in workloads}
    tails = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    failures = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            result, info, wall = run_once(w, args.seed + i, args.seconds,
                                          args.trace)
            walls[w].append(wall)
            failures += result["failed"] + (0 if result["correct"] else 1)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name in TAILS:
                if name in info:
                    tails[w].setdefault(name, []).append(
                        (info[name]["value"], info[name]["samples"]))
            shown = " ".join(f"{k}={m['value']:.6g}"
                             for k, m in result["metrics"].items()
                             if k in bounds)
            if "env.memcpy_6mb_us" in info:
                shown += f" memcpy_us={info['env.memcpy_6mb_us']['value']:.0f}"
            print(f"run {i} {w} seed {args.seed + i}: {wall:.1f} s wall, "
                  f"correct={result['correct']} failed={result['failed']} "
                  f"{shown}", flush=True)

    for w in workloads:
        print(f"\n{w}: {args.runs} runs, wall median "
              f"{statistics.median(walls[w]):.1f} s, max {max(walls[w]):.1f} s")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, vals in values[w].items():
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(name)
            verdict = ""
            if name == "setup_s":
                verdict = "spread not gated; medians compared"
            elif bound is not None:
                if spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound, above a third"
                else:
                    verdict = "TOO NOISY"
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}"
                  f"  {verdict}")
        for name, pairs in tails[w].items():
            med, q1, q3, spread = summarize([v for v, _ in pairs])
            samples = statistics.median([n for _, n in pairs])
            print(f"  tail {name:29} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f}    n/a  ungated, ~{samples:.0f} samples/run")
    print(f"\nfailed operations or checks over all runs: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
