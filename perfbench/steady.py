#!/usr/bin/env python3
"""Steadiness report: run every workload repeatedly, one seed per run.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--trace 0|1]

Run from the repository root. For every metric of every workload it
prints the unit, the median and quartiles over the runs (quartiles as
`statistics.quantiles(values, n=4)` gives them), the spread (quartile
distance over the median) and that spread against the metric's bound in
BENCHMARK.json. A metric is steady when its spread is within its bound,
and marked `tight` when the spread is a third of the bound or more: a
second set of runs may then land outside the bound. Workloads with an
unsteady metric, a failed run or a failed query are named at the end,
and the exit code is then 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        print(f"{workload} seed {seed} exited {done.returncode}:\n{tail}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    unsteady = {}
    for w in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(w, seed, bench["run_seconds"], args.trace)
            results.append(r)
            state = "failed" if r is None else f"attempted {r['attempted']} failed {r['failed']}"
            print(f"{w} seed {seed}: {state}", file=sys.stderr, flush=True)
        ok = [r for r in results if r is not None and r["correct"]]
        if len(ok) < len(results):
            unsteady.setdefault(w, []).append(f"{len(results) - len(ok)} run(s) failed")
        if any(r["failed"] for r in ok):
            unsteady.setdefault(w, []).append("queries failed")
        print(f"\n== {w}: {len(ok)} of {len(results)} runs ok")
        print(f"{'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'/bound':>7}")
        for spec in specs:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for r in ok
                      if r["metrics"].get(name, {}).get("value") is not None]
            if len(values) < 2:
                print(f"{name:<32} too few values")
                unsteady.setdefault(w, []).append(f"{name}: too few values")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = spec.get("bound")
            if bound is None:
                print(f"{name:<32} {spec['unit']:<6} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.4f}")
                continue
            mark = "" if spread < bound / 3 else "  tight" if spread <= bound else "  UNSTEADY"
            print(f"{name:<32} {spec['unit']:<6} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.4f} {bound:>6.3f} {spread / bound:>7.3f}{mark}")
            if spread > bound:
                unsteady.setdefault(w, []).append(f"{name}: spread {spread:.4f} vs bound {bound}")

    print()
    if unsteady:
        for w, why in unsteady.items():
            print(f"UNSTEADY {w}: " + "; ".join(why))
        sys.exit(1)
    print("every workload steady")


if __name__ == "__main__":
    main()
