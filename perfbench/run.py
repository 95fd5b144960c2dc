"""fpgb benchmark: one workload per call, each in fresh single-threaded processes.

    python3 perfbench/run.py --workload big-batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fpgb is imported from ./src.
With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
measured with no tracer loaded and scaled to the reference host speed of
hostspeed.py; the unscaled values are printed too.  With ``--trace 1`` it makes a separate
traced run, prints the per-layer metrics and writes the spans as JSONL
under ``.perfbench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("big-batch", "many-small", "verify")
CHILD_TIMEOUT_S = 170
# op_s.tail: many-small runs at least 384 ops, so its p90 has more than ten
# ops beyond it; the one-input workloads run six to eleven ops, too few for
# that, and report the p75 rather than the slowest op, which one host
# hiccup decides
TAIL_PERCENTILE = {"big-batch": 0.75, "many-small": 0.9, "verify": 0.75}
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def environment(load_start) -> dict:
    """Where a result was measured; stamped into every result file."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load_avg_start": load_start,
        "load_avg_end": list(os.getloadavg()),
        "git_commit": commit,
    }


def run_child(args, extra) -> dict:
    """Start worker.py in a fresh process and return its JSON line."""
    env = {**os.environ, **SINGLE_THREAD_ENV}
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(ops_s, inputs: int, percentile):
    """The workload's tail: a fixed percentile of the run's op times.

    The percentile is fixed per workload, so it does not change with speed.
    """
    ranked = sorted(ops_s)
    k = max(0, math.ceil(percentile * len(ranked)) - 1)
    return ranked[k], f"p{round(percentile * 100)} of {len(ranked)} ops over {inputs} input(s)"


def end_to_end(result: dict, percentile):
    """The end-to-end metrics, scaled to the reference host speed.

    Each op time, and the loop time it took, is multiplied by
    ``REFERENCE_S`` / the reference time measured around it; each set-up
    time by ``REFERENCE_S`` / the reference time measured with its group
    (see hostspeed.py).  Returns (metrics, notes, raw), where raw holds the
    same metrics as measured, unscaled.
    """

    def compute(ops, blocks, setups):
        tail_s, note = tail(ops, result["inputs"], percentile)
        return {
            "setup_s": (statistics.median(setups), "s"),
            "op_s.median": (statistics.median(ops), "s"),
            "op_s.tail": (tail_s, "s"),
            "ops_per_s": (len(ops) / sum(blocks), "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),  # after the first pass over the inputs
        }, note

    scale = [REFERENCE_S / r for r in result["refs_s"]]
    metrics, tail_note = compute(
        [t * k for t, k in zip(result["ops_s"], scale)],
        [t * k for t, k in zip(result["blocks_s"], scale)],
        [t * REFERENCE_S / r for t, r in result["setups"]],
    )
    raw, _ = compute(result["ops_s"], result["blocks_s"], [t for t, _ in result["setups"]])
    notes = {"op_s.tail": tail_note, "setup_s": f"median of {len(result['setups'])} fresh processes"}
    return metrics, notes, raw


def per_layer(result: dict):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return {name: (result["metrics"][name], unit) for name, unit in units.items()}, {}, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fpgb", "__init__.py")):
        sys.stderr.write(f"no fpgb sources under {os.path.join(ROOT, 'src')}; run from a checkout\n")
        return 2
    load_start = list(os.getloadavg())
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    result = run_child(args, ["--trace-out", stem + ".spans.jsonl"] if args.trace else [])
    if not result["ops_s"]:
        sys.stderr.write("no op finished:\n" + "\n".join(result["failures"][:20]) + "\n")
        return 1
    if args.trace:
        metrics, notes, raw = per_layer(result)
    else:
        metrics, notes, raw = end_to_end(result, TAIL_PERCENTILE[args.workload])

    env = environment(load_start)
    attempted, failed = result["attempted"], result["failed"]
    for reason in result["failures"][:20]:
        print(f"FAIL {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops over {result['inputs']} input(s)")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    if raw:
        ref = statistics.median(result["refs_s"])
        print(f"host slowdown: median reference time {ref:.4g} s / REFERENCE_S {REFERENCE_S} s"
              f" = {ref / REFERENCE_S:.4g}")
        for name, (value, unit) in raw.items():
            print(f"unscaled {name} = {value:.6g} {unit}")
    print(f"ops attempted={attempted} failed={failed} fail_rate={failed / attempted:.6g}")
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({**record, "workload": args.workload, "seed": args.seed, "environment": env,
                   "unscaled": {name: value for name, (value, _) in raw.items()},
                   "failures": result["failures"], "ops_s": result["ops_s"],
                   "refs_s": result.get("refs_s")}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
