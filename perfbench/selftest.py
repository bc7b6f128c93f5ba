#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's contract, then runs every
workload at the self-test's tiny size, with tracing off and on, through
`perfbench/run.py`. Each run must finish in seconds, exit 0, and print as
its last line a result whose metrics are exactly the ones BENCHMARK.json
names for that mode, each with its unit and a name matching
`[A-Za-z0-9_.-]+`. A traced run must write its span file. Exits 1 on the
first failure.
"""

import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# Seconds a tiny run may take once the binary is built.
TINY_LIMIT = 30


def fail(message):
    print("selftest: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def check_manifest(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        fail("BENCHMARK.json keys %s" % sorted(bench))
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200:
            fail("workload entry %r" % w)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)):
        fail("a name is used twice")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail("end-to-end entry %r" % m)
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per-layer entry %r" % m)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must exist and carry the largest bound")


def run(workload, trace, results):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--results", results]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.time() - start
    if out.returncode != 0:
        fail("%s --trace %d exited %d:\n%s" % (workload, trace, out.returncode, out.stderr))
    if took > TINY_LIMIT:
        fail("%s --trace %d took %.1f s" % (workload, trace, took))
    result = json.loads(out.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        fail("%s --trace %d result %r" % (workload, trace, result))
    return result, took


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_manifest(bench)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    results = os.path.join(target, "perfbench-out", "selftest.ndjson")
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, took = run(w["name"], trace, results)
            expected = {m["name"]: m["unit"] for m in declared}
            found = {k: v.get("unit") for k, v in result["metrics"].items()}
            if found != expected:
                fail("%s --trace %d metrics differ from BENCHMARK.json: %s" % (
                    w["name"], trace, sorted(set(found.items()) ^ set(expected.items()))))
            for name, value in result["metrics"].items():
                if not NAME.match(name) or not isinstance(value["value"], (int, float)):
                    fail("%s metric %s = %r" % (w["name"], name, value))
            if trace:
                spans = os.path.join(target, "perfbench-out", "trace-%s-seed7.ndjson" % w["name"])
                if not os.path.isfile(spans) or os.path.getmtime(spans) < time.time() - took - 1:
                    fail("%s wrote no span file at %s" % (w["name"], spans))
            print("selftest: %-18s --trace %d ok (%.1f s)" % (w["name"], trace, took))
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
