#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload big-swarm-sharded --seed 1 --seconds 35 --trace 0

It builds the `perfbench` package (release profile) into $CARGO_TARGET_DIR,
or `.bench_build` when that is unset, runs it, and prints its output. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is nonzero when the build
fails, the repository sources are missing, or an output check failed.

Each result is also appended, with the host fingerprint, to
`<target dir>/perfbench-out/results.ndjson` (or the file given with
`--results`); `perfbench/compare.py` compares two such files.

Optional flags: `--size tiny` (the self-test's sizes), `--results FILE`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-regen", "replication-stream", "big-swarm-sharded"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    p.add_argument("--results", help="append the result record to this file")
    return p.parse_args(argv)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    """Builds the benchmark binary and returns its path, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def cache_sizes():
    """Sizes of the level-2 and level-3 caches of CPU 0, as the kernel reports them."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        entries = []
    for entry in entries:
        level = read(os.path.join(base, entry, "level")).strip()
        kind = read(os.path.join(base, entry, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes["l%s" % level] = read(os.path.join(base, entry, "size")).strip()
    return sizes.get("l2", "unknown"), sizes.get("l3", "unknown")


def filesystem_of(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    for line in read("/proc/mounts").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def fingerprint(out_dir):
    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    l2, l3 = cache_sizes()
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    flags = os.environ.get("RUSTFLAGS", "") + os.environ.get("CARGO_ENCODED_RUSTFLAGS", "")
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l2": l2,
        "l3": l3,
        "rustc": rustc,
        "profile": "release",
        "pgo": "profile-use" in flags,
        "checkpoint_fs": filesystem_of(out_dir),
    }


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "crates", "engine", "Cargo.toml")):
        print("perfbench: the repository sources are missing next to %s" % HERE, file=sys.stderr)
        return 2
    target = target_dir()
    binary = build(target)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    host = fingerprint(out_dir)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--size", args.size,
        "--out-dir", out_dir,
    ]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return child.returncode or 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "size": args.size,
        "fingerprint": host,
        "result": result,
    }
    with open(args.results or os.path.join(out_dir, "results.ndjson"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("fingerprint " + json.dumps(host, sort_keys=True))
    print(lines[-1])
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
