#!/usr/bin/env python3
"""Checks a pdxbench results file (JSON Lines, one object per run).

Every run must be correct, and every metric must have a numeric value, a
unit and a sample count n. Every end-to-end metric BENCHMARK.json lists
must be present for every untraced run, and every per-layer metric for
every traced run.

Usage: check_results.py RESULTS.json
"""

import json
import math
import pathlib
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def main(path):
    spec = json.loads(BENCHMARK.read_text())
    wanted = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    with open(path) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    problems = []
    if not runs:
        problems.append("no runs in " + path)
    for run in runs:
        who = "%s (trace=%s)" % (run.get("workload"), run.get("trace"))
        if not run.get("correct"):
            problems.append(who + ": oracle failed: %s" % run.get("failures"))
        metrics = run.get("metrics", {})
        for name, m in metrics.items():
            ok = (
                isinstance(m.get("value"), (int, float))
                and math.isfinite(m["value"])
                and isinstance(m.get("unit"), str)
                and m["unit"]
                and isinstance(m.get("n"), int)
            )
            if not ok:
                problems.append("%s: metric %s is malformed: %s" % (who, name, m))
        for name in wanted[bool(run.get("trace"))]:
            if name not in metrics:
                problems.append("%s: metric %s is missing" % (who, name))
    for p in problems:
        print("check_results:", p, file=sys.stderr)
    print("check_results: %d runs, %s" % (len(runs), "FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
