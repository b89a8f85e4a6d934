#!/usr/bin/env python3
"""Check bench PARCT_STATS_JSON output against bench/alloc_budget.json.

Usage: check_alloc_budget.py <stats.jsonl> [<budget.json>]

Reads the JSONL emitted by the benches (one StatsDump object per line) and
the checked-in budget file. For every bench named in the budget, every
emitted line of that bench must satisfy counter <= ceiling for each
budgeted counter, and at least one line must be present (so a bench that
silently stopped emitting fails rather than vacuously passing).

Besides plain numeric ceilings, a bench entry may carry:

  "floors"        {counter: minimum} — every matching row must satisfy
                  counter >= minimum (e.g. chose_serial >= 1 proves the
                  adaptive serial fast path stayed engaged).
  "floors_filter" {field: value} — restricts which rows the floors apply
                  to (e.g. {"batch_m": 1} gates only the single-edge
                  rows). At least one row must match, so a sweep that
                  drops the gated configuration fails loudly.

Timing fields are reported but never enforced — the budget gates only
deterministic counters (allocation counters, serial-path decisions, the
serial cutover, snapshot buffers). Exit status: 0 = all budgets
met, 1 = violation or missing bench, 2 = usage/parse error.
"""

import json
import sys
from pathlib import Path


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    stats_path = Path(argv[1])
    budget_path = (
        Path(argv[2])
        if len(argv) == 3
        else Path(__file__).resolve().parent.parent / "bench" / "alloc_budget.json"
    )

    try:
        budgets = json.loads(budget_path.read_text())["budgets"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: cannot read budget file {budget_path}: {e}",
              file=sys.stderr)
        return 2

    lines = []
    try:
        with stats_path.open() as f:
            for ln, raw in enumerate(f, 1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    lines.append(json.loads(raw))
                except json.JSONDecodeError as e:
                    print(f"error: {stats_path}:{ln}: bad JSON: {e}",
                          file=sys.stderr)
                    return 2
    except OSError as e:
        print(f"error: cannot read stats file {stats_path}: {e}",
              file=sys.stderr)
        return 2

    failures = 0
    for bench, entry in budgets.items():
        ceilings = {k: v for k, v in entry.items()
                    if k not in ("floors", "floors_filter")}
        floors = entry.get("floors", {})
        floors_filter = entry.get("floors_filter", {})

        rows = [d for d in lines if d.get("bench") == bench]
        if not rows:
            print(f"FAIL {bench}: no stats lines emitted "
                  f"(expected at least one)")
            failures += 1
            continue
        worst = {key: max(r.get(key, 0) for r in rows) for key in ceilings}
        ok = all(worst[key] <= ceilings[key] for key in ceilings)
        detail = ", ".join(
            f"{key}={worst[key]} (budget {ceilings[key]})" for key in ceilings
        )

        if floors:
            gated = [r for r in rows
                     if all(r.get(f) == v for f, v in floors_filter.items())]
            if not gated:
                ok = False
                detail += (f"; no rows match floors_filter {floors_filter}"
                           if detail else
                           f"no rows match floors_filter {floors_filter}")
            else:
                least = {key: min(r.get(key, 0) for r in gated)
                         for key in floors}
                ok = ok and all(least[key] >= floors[key] for key in floors)
                detail += "; " + ", ".join(
                    f"{key}={least[key]} (floor {floors[key]}, "
                    f"{len(gated)} gated row(s))" for key in floors
                )

        status = "ok  " if ok else "FAIL"
        print(f"{status} {bench}: {len(rows)} line(s); {detail}")
        if not ok:
            failures += 1

    # Advisory timing summary (never enforced).
    for d in lines:
        for key in ("update_time_s", "construct_time_s"):
            if key in d:
                print(f"time {d.get('bench')}: {key}={d[key]} "
                      f"(advisory only)")

    if failures:
        print(f"\n{failures} budget violation(s); see the FAIL lines above.")
        return 1
    print("\nall allocation budgets met")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
