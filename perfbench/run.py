#!/usr/bin/env python3
"""Runs one ledger workload: builds tsg_ledger from source, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build. Build output goes to stderr. The last stdout line
is the ledger's JSON result, printed only after its metric names and units
were checked against spec.py. Exits non-zero, printing no result, when the
build, the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spec  # noqa: E402

ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("tsgraph sources (src/) are missing next to perfbench/")
    build_dir = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4",
                  "--target", "tsg_ledger"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            die("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tsg_ledger")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    spans_dir = os.path.join(build_root, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root, "perfbench-work")]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        die("tsg_ledger exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        die("tsg_ledger exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("tsg_ledger printed no result")
    result = json.loads(lines[-1])
    expected = spec.PER_LAYER if args.trace else spec.END_TO_END
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die("metrics differ from spec.py: got %s, want %s" % (got, want))
    print(lines[-1])


if __name__ == "__main__":
    main()
