#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py parent.ndjson change.ndjson

Each file holds result records as `perfbench/run.py --results FILE` appends
them. Only `--trace 0` records are compared. The comparison is refused (exit
code 2) unless every record of both files carries the same host
fingerprint. For every workload and end-to-end metric it prints the median
and quartiles of each side, the change of the median, and the metric's
bound from BENCHMARK.json, and, for seeds run on both sides, how many of
those pairs the change won. It exits 1 when the change failed more
operations than the parent, when a median got worse by more than its bound,
or when the spread of a side's own runs is wider than the bound (the
comparison is then unresolved, not passed) unless every run of the change
is better than every run of the parent.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = [[r for r in load(p) if r["trace"] == 0] for p in argv]
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for side in sides for r in side}
    if len(prints) != 1:
        print("refusing to compare results from different hosts or builds:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    print("host: " + prints.pop())
    worse = False
    workloads = sorted({r["workload"] for side in sides for r in side})
    for workload in workloads:
        runs = [[r for r in side if r["workload"] == workload] for side in sides]
        if not all(runs):
            print("%s: missing on one side" % workload)
            worse = True
            continue
        failed = [sum(r["result"]["failed"] for r in side) for side in runs]
        print("%s (%d vs %d runs, failed %d vs %d)" % (
            workload, len(runs[0]), len(runs[1]), failed[0], failed[1]))
        if failed[1] > failed[0]:
            print("  the change failed more operations than the parent")
            worse = True
        for name, spec in metrics.items():
            values = [[r["result"]["metrics"][name]["value"] for r in side] for side in runs]
            (a1, a2, a3), (b1, b2, b3) = quartiles(values[0]), quartiles(values[1])
            change = (b2 - a2) / a2 if a2 else 0.0
            spread = max((a3 - a1) / a2 if a2 else 0.0, (b3 - b1) / b2 if b2 else 0.0)
            worse_by = change if spec["better"] == "lower" else -change
            by_seed = [{r["seed"]: r["result"]["metrics"][name]["value"] for r in side}
                       for side in runs]
            pairs = sorted(set(by_seed[0]) & set(by_seed[1]))
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(1 for s in pairs if sign * (by_seed[1][s] - by_seed[0][s]) > 0)
            separated = min(sign * v for v in values[1]) > max(sign * v for v in values[0])
            if worse_by > spec["bound"]:
                verdict = "WORSE than bound"
                worse = True
            elif spread > spec["bound"] and separated:
                verdict = "better: every change run beats every parent run"
            elif spread > spec["bound"]:
                verdict = "unresolved (spread %.3f > bound)" % spread
                worse = True
            else:
                verdict = "within bound"
            print("  %-12s %s  parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]"
                  "  %+.1f%%  bound %.0f%%  change won %d/%d pairs  %s" % (
                      name, spec["unit"], a2, a1, a3, b2, b1, b3, 100 * change,
                      100 * spec["bound"], wins, len(pairs), verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
