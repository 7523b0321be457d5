#!/usr/bin/env python3
"""Compare two result sets of the benchmark, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR \\
        [--claim wall_s@verify-table1 ...]

A result set is a directory holding one subdirectory per workload, each
with one file per run: the last line run.py printed.  The i-th run of
the parent (files sorted by name) pairs with the i-th run of the change,
so make the runs in pairs, alternating which side runs first.

For every end-to-end metric of BENCHMARK.json and every workload, one
verdict:
  claimed pairs:  "improved" when the change wins at least 9 of 10 pairs
                  (ties count for neither) and the medians differ by more
                  than the parent's interquartile range; else "not shown".
  all others:     "unresolved" when either side's spread (IQR / median)
                  exceeds the metric's bound, unless every change run
                  beats every parent run; else "regressed" when the
                  change's median is worse than the parent's by more than
                  the bound; else "within bound".
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(better, bound, parent, change, claimed):
    """The verdict for one (metric, workload); see the module doc."""
    sign = 1.0 if better == "lower" else -1.0
    # gain > 0 means the change is better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    if claimed:
        wins = sum(1 for g in gains if g > 0)
        shown = (wins >= 0.9 * len(gains) and
                 sign * (med_p - med_c) > iqr(parent))
        return "improved" if shown else "not shown"
    spread = max(iqr(parent) / abs(med_p), iqr(change) / abs(med_c))
    if spread > bound:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return "within bound" if all_better else "unresolved"
    worse = sign * (med_c - med_p) / abs(med_p)
    return "regressed" if worse > bound else "within bound"


def load_runs(directory, workload):
    path = os.path.join(directory, workload)
    runs = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name)) as f:
            runs.append(json.loads(f.read().strip().splitlines()[-1]))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        help="metric@workload the change claims to improve")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    claims = set(args.claim)
    regressed = False
    print(f"{'workload':16s} {'metric':14s} {'parent med':>12s} "
          f"{'change med':>12s} {'pairs':>5s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if not os.path.isdir(os.path.join(args.parent, workload)):
            continue
        parent_runs = load_runs(args.parent, workload)
        change_runs = load_runs(args.change, workload)
        pairs = min(len(parent_runs), len(change_runs))
        if pairs < 2:
            print(f"{workload:16s} needs at least 2 runs per side")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in parent_runs[:pairs]]
            change = [r["metrics"][name]["value"] for r in change_runs[:pairs]]
            verdict = judge(metric["better"], metric["bound"], parent, change,
                            f"{name}@{workload}" in claims)
            regressed |= verdict in ("regressed", "not shown")
            print(f"{workload:16s} {name:14s} "
                  f"{statistics.median(parent):12.6g} "
                  f"{statistics.median(change):12.6g} {pairs:5d}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
