#!/usr/bin/env python3
"""Steadiness check for the benchmark described in BENCHMARK.json.

Runs every workload (or those named) `--runs` times, each on its own
seed, and prints for every metric the median, the first and third
quartiles (Python's statistics.quantiles(values, n=4)), and the spread
(q3 - q1) / median next to the metric's bound. With `--sets 2` it runs
two such sets and also prints how far the second set's median moved
from the first, in the worse direction, against the bound. It also
checks that every run was correct and that the share of failed
operations is identical across runs.

Run it from the repository root:

    python3 ucbench/steady.py --runs 10
    python3 ucbench/steady.py --runs 5 --workloads partition_durable
    python3 ucbench/steady.py --runs 3 --trace 1

Run i of set s uses seed 1000 + s * runs + i.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEED0 = 1000


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for workload in names:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = SEED0 + s * args.runs + i
                r = run_once(bench["command"], workload, seed, seconds, args.trace)
                results.append(r)
                if not r["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: correct=false")
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
        print(f"\n== {workload}: {args.sets} x {args.runs} runs of {seconds} s, "
              f"failed share(s) {sorted(shares)}")
        if len(shares) != 1:
            ok = False
        print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>8}{'shift':>9}")
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            meds = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, sp = spread(values)
                meds.append(med)
                flag = ""
                if bound is not None and sp > bound:
                    flag = "  SPREAD>BOUND"
                    ok = False
                elif bound is not None and sp > bound / 3:
                    flag = "  spread>bound/3"
                shift = ""
                if len(meds) == 2 and meds[0]:
                    worse = (meds[1] - meds[0]) / meds[0]
                    if m["better"] == "higher":
                        worse = -worse
                    shift = f"{worse:+.3f}"
                    if bound is not None and worse > bound:
                        flag += "  SHIFT>BOUND"
                        ok = False
                b = f"{bound:.2f}" if bound is not None else "-"
                print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>9.3f}"
                      f"{b:>8}{shift:>9}{flag}")
    print("\nsteady: " + ("OK" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
