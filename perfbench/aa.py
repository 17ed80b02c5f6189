#!/usr/bin/env python3
"""A/A steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/aa.py [--workloads tdsp-road,...] [--seeds 1,2,...]
                            [--seconds S]

For every workload, each seed is run once in set A and once in set B,
alternating which set goes first. Per workload and end-to-end metric it
prints both medians, their quartiles, each set's spread (interquartile
distance as a share of the median, over the seeds) and whether:
  steady  - both spreads are below a third of the metric's bound ("yes"),
            within the bound ("within") or above it ("NO"),
  agree   - the medians differ, in either direction, by at most the bound
            times set A's median ("yes"), or not ("NO"); a metric whose
            spread is above its bound is "unresolved" instead, since its
            runs cannot tell a change of that size from noise.
It also checks that every seed gave the same output digest and superstep
count in both sets. Run from the root of a checkout. Exits 0 only when
every metric agrees and every digest repeats; 2 when the only findings are
unresolved metrics; 1 otherwise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spec  # noqa: E402

ROOT = os.path.dirname(HERE)
DIGEST_RE = re.compile(r"ledger: workload=\S+ seed=(\d+) digest=(\w+) "
                       r"supersteps=(\d+)")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    match = DIGEST_RE.search(proc.stderr)
    digest = (match.group(2), int(match.group(3))) if match else None
    return result, digest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec.WORKLOADS))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    unresolved = []
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        digests = {"A": {}, "B": {}}
        failed = 0
        for i, seed in enumerate(seeds):
            for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
                result, digest = run_once(workload, seed, args.seconds)
                failed += result["failed"]
                sets[name].append(result)
                digests[name][seed] = digest
                print("%s seed %d set %s: %s" % (
                    workload, seed, name,
                    {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()}),
                    file=sys.stderr, flush=True)
        print("\n== %s: %d seeds x 2 sets, %d failed jobs" % (
            workload, len(seeds), failed))
        ok &= failed == 0
        print("%-26s %10s %21s %10s %21s %7s %7s %6s %6s" % (
            "metric", "median A", "q1..q3 A", "median B", "q1..q3 B",
            "sprdA", "sprdB", "steady", "agree"))
        for m in spec.END_TO_END:
            a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            bound = m["bound"]
            spread = max(spread_a, spread_b)
            steady = "yes" if spread < bound / 3 else (
                "within" if spread <= bound else "NO")
            if spread > bound:
                agree = "unresolved"
                unresolved.append("%s %s" % (workload, m["name"]))
            elif abs(qb[1] - qa[1]) <= bound * qa[1]:
                agree = "yes"
            else:
                agree = "NO"
                ok = False
            print("%-26s %10.5g %10.5g..%-10.5g %10.5g %10.5g..%-10.5g "
                  "%7.3f %7.3f %6s %s" % (
                      m["name"], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                      spread_a, spread_b, steady, agree))
        for seed in seeds:
            da, db = digests["A"][seed], digests["B"][seed]
            same = da == db and da is not None
            ok &= same
            print("seed %-6d digest %s supersteps %s  repeat %s" % (
                seed, da[0] if da else "?", da[1] if da else "?",
                "same" if same else "DIFFERS (%s)" % (db,)))
    if not ok:
        print("\nA/A FAILS")
        return 1
    if unresolved:
        print("\nA/A agrees where resolved; unresolved (spread above bound): "
              + ", ".join(unresolved))
        return 2
    print("\nA/A agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
