#!/usr/bin/env python3
"""Steadiness check: ten runs per workload, each with another seed.

For every end-to-end metric prints the median of the ten values and the
distance between their first and third quartile as a share of that
median, beside the metric's bound from BENCHMARK.json. A spread past
the bound is flagged; the aim is a spread under a third of the bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--out FILE]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed):
    cmd = ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="also write every run's values here as JSON")
    args = ap.parse_args()
    runs = {}
    worst = 0.0
    for w in (w["name"] for w in SPEC["workloads"]):
        rows = [one_run(w, args.first_seed + i) for i in range(args.runs)]
        runs[w] = rows
        print(w)
        for m in SPEC["end_to_end"]:
            values = [r[m["name"]] for r in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / abs(median) if median else 0.0
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
                flag = "  PAST BOUND" if share > m["bound"] else ("  over a third" if share > m["bound"] / 3 else "")
            print(f"  {m['name']:<24} median {median:12.4f} {m['unit']:<6} spread {share:6.3f}  bound {m['bound']:.2f}{flag}")
    print(f"worst spread is {worst:.2f} of its bound")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
