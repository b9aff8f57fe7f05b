#!/usr/bin/env python3
"""Steadiness tool: runs each workload repeatedly with different seeds and
prints, for every metric, the median, the first and third quartiles and
their distance as a share of the median, next to the bound BENCHMARK.json
sets. Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workload paper-zipf] [--trace 0]
        [--save set1.json] [--against set0.json]

The bounds in BENCHMARK.json are chosen from what this tool measures: a
metric's spread should stay below a third of its bound. --save keeps every
run's values; --against compares this set's medians with a saved set's and
flags a metric whose median got worse by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    ap.add_argument("--save", help="write every run's values to this JSON file")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] + bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    saved = {}
    ok = True
    for name in names:
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            shares.add(res["failed"] / res["attempted"])
            if not res["correct"]:
                ok = False
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        saved[name] = {"values": values, "failed_shares": sorted(shares)}
        print(f"== {name}: {args.runs} runs, failed shares {sorted(shares)}")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'drift':>8}")
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            b = bounds.get(k)
            flag = ""
            if b is not None and not spread < b / 3:
                flag = "  <-- spread above a third of the bound"
            # drift: how much worse this median is than the saved set's,
            # as a share of the saved median.
            drift = ""
            old = earlier.get(name, {}).get("values", {}).get(k)
            if old and statistics.median(old):
                m0 = statistics.median(old)
                d = (med - m0) / abs(m0) * (1 if better[k] == "lower" else -1)
                drift = f"{d:8.4f}"
                if b is not None and d > b:
                    flag += "  <-- median worse than the saved set's by more than the bound"
                    ok = False
            print(f"  {k:36} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {b if b is not None else '':>6} {drift:>8}{flag}")
            if args.verbose:
                print("      runs: " + " ".join(f"{v:.4g}" for v in vs))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
