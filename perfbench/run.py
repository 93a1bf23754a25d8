#!/usr/bin/env python3
"""Builds the SWARM-KV benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <ycsb_b_warm|ycsb_a_contended|sharded_cold>
                             [--seed 42] [--seconds 30] [--trace 0|1]

The benchmark package (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR, or .bench_build/ when that is unset. The last line of
stdout is the result as one JSON object; any build failure or correctness
violation exits nonzero without printing it. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ycsb_b_warm", "ycsb_a_contended", "sharded_cold")
# A run must end within 180 s; the binary itself stops starting rounds once
# --seconds have passed.
RUN_TIMEOUT_S = 170
# The source tree the library and the benchmark are built from.
SOURCE_DIRS = ("crates", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")
SKIP_DIRS = {"target", "out", ".bench_build"}


def source_id():
    """The git commit when the tree is a git checkout, else a digest of the
    source tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        toplevel, commit = out.stdout.split()
        if os.path.realpath(toplevel) == os.path.realpath(ROOT):
            return "git:" + commit
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n not in SKIP_DIRS)
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    # Build output goes to stderr: stdout carries only the benchmark's.
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: build failed ({' '.join(cmd)})")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    return os.path.join(target, "release", "swarm-perfbench")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main():
    args = parse_args()
    binary = build()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--source", source_id(),
    ]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        print("\n".join(lines[:-1] if lines[-1].startswith("{") else lines))
        sys.exit(f"run.py: {args.workload} failed with exit code {result.returncode}")
    try:
        res = json.loads(lines[-1])
        ok = set(res) == {"correct", "attempted", "failed", "metrics"} and res["correct"] is True
    except (json.JSONDecodeError, TypeError):
        ok = False
    if not ok:
        print("\n".join(lines))
        sys.exit("run.py: the benchmark's last line is not a correct result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
