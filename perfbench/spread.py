"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload many-small --runs 10 [--first-seed 1] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the distance between the quartiles as a share of the median.
Every run must report ``correct``.  With ``--out`` the summary is written
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    per_metric: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall_s = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if not record["correct"]:
            raise SystemExit(f"seed {seed}: incorrect output\n{proc.stdout}")
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in record["metrics"].items())
        print(f"seed {seed}: {line}  wall={wall_s:.1f}s", flush=True)
        for name, m in record["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])

    summary = {name: summarize(vals) for name, vals in per_metric.items()}
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
        print(f"{name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "runs": args.runs, "first_seed": args.first_seed,
                       "seconds": seconds, "trace": args.trace, "metrics": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
