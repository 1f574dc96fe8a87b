#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 e2ebench/spread.py --workload drain_staggered --seeds 1-10

Each run measures for the run_seconds BENCHMARK.json declares. For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: the interquartile
distance as a share of the median, the figure each metric's bound in
BENCHMARK.json is checked against. Each seed's fingerprint line
is echoed so two sets of runs can be compared for identical simulated
results. Exits non-zero if a run fails or is not correct. Runs are
sequential, one process at a time.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    values, ok = {}, True
    for seed in args.seeds:
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "0"], capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        metrics = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        fingerprint = next((l for l in lines if l.startswith("fingerprint ")), "")
        print(f"seed {seed}: correct={result['correct']} {metrics} {fingerprint}", flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        print(f"{args.workload} {k}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={(q3 - q1) / med:.4f} n={len(v)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
