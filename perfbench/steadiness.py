#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median, quartiles and spread (quartile distance as a share of the median).

Run from the repository root:

    python3 perfbench/steadiness.py --seconds 20 --seeds 1-10 spec_grid fleet_8k

Raw result lines are appended to .bench_build/steadiness.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "steadiness.jsonl"), "a")
    for w in args.workloads:
        values = {}
        for seed in seed_list(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}")
            res = json.loads(lines[-1])
            log.write(json.dumps({"workload": w, "seed": seed, "result": res}) + "\n")
            log.flush()
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {res}")
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"| {w} | metric | median | q1 | q3 | spread |")
        for k in sorted(values):
            xs = values[k]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {w} | {k} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * spread:.2f}% |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
