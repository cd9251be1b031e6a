#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

Runs every workload once per seed and reports, per end-to-end metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. With --compare, also reports how far a
second set of runs' medians moved from the first set's.

    python3 perfbench/steady.py --seeds 1,7919,2,3,4,5,6,7,8,9 \
        --out .bench_build/perfbench/steady_a.json
    python3 perfbench/steady.py --seeds ... --out .../steady_b.json \
        --compare .../steady_a.json

Run from the root of the repository.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {' '.join(args)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady: wrong answers on {workload} seed {seed}")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w for w in opts.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seeds = [int(s) for s in opts.seeds.split(",")]
    seconds = bench["run_seconds"]

    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(bench["command"], workload, seed, seconds)
                for seed in seeds]
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize(
                [r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary["workloads"][workload] = metrics
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if m["spread"] <= bound / 3 else (
                    "WITHIN BOUND" if m["spread"] <= bound else "TOO WIDE")
            print(f"{workload:9s} {name:36s} median={m['median']:.6g} "
                  f"spread={m['spread']:.4f} bound={bound} {flag}",
                  flush=True)

    if opts.compare:
        with open(opts.compare) as f:
            first = json.load(f)
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        print("median drift against", opts.compare)
        for workload, metrics in summary["workloads"].items():
            for name, m in metrics.items():
                base = first["workloads"][workload][name]["median"]
                drift = (m["median"] - base) / base if base else 0.0
                worse = drift if better.get(name) == "lower" else -drift
                bound = bounds.get(name)
                flag = ("ok" if bound is None or worse <= bound
                        else "WORSE THAN BOUND")
                print(f"{workload:9s} {name:36s} drift={drift:+.4f} {flag}")
                m["drift_vs_first"] = drift

    os.makedirs(os.path.dirname(os.path.abspath(opts.out)), exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
