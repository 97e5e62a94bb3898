#!/usr/bin/env python3
"""Runs the benchmark several times per workload and summarises the runs.

    python3 perfbench/record.py [--runs 10] [--first-seed 1] [--seed-step 1000]
                                [--workloads a,b] [--out FILE]

For each workload: `--runs` untraced runs at seeds `first-seed + i *
seed-step` (the default step keeps the runs' seed sets disjoint), then one
traced run at the first seed.  Prints every end-to-end metric's median and
its spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) next to the
metric's bound, and the traced run's per-layer metrics.  With `--out`,
writes the summary as a JSON record.  A record describes the host it was
made on (its core count is stored with it); it is not a baseline for
another machine.

Run from the repository root.  Fails if any run is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def run(workload, seed, trace):
    argv = BENCH["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]),
        "--trace", str(trace),
    ]
    print(f"  running {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
    out = subprocess.run(
        argv, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: run not correct: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seed-step", type=int, default=1000)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    record = {
        "host": {"cores": os.cpu_count(), "note": "same-host record, not a cross-host baseline"},
        "runs": args.runs,
        "seeds": [args.first_seed + i * args.seed_step for i in range(args.runs)],
        "run_seconds": BENCH["run_seconds"],
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, 0) for seed in record["seeds"]]
        e2e = {}
        print(f"{workload}: {args.runs} untraced runs")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med, sp = statistics.median(values), spread(values)
            e2e[name] = {"median": med, "spread": sp, "values": values}
            flag = "" if sp <= bound / 3 or name == "setup_s" else "  <-- above a third of the bound"
            print(f"  {name:<20} {med:>14.6g} {units[name]:<9} spread {sp:.4f} (bound {bound}){flag}")
        layers = run(workload, args.first_seed, 1)
        print(f"{workload}: traced run")
        for name, value in layers.items():
            print(f"  {name:<32} {value:>14.6g} {units[name]}")
        record["workloads"][workload] = {"end_to_end": e2e, "per_layer": layers}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
