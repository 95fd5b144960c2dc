"""One workload in one fresh, single-threaded process; started by run.py.

Prints one JSON line.  With ``--setup-only`` it stops once the inputs are
generated and parsed, so that set-up can be timed in several fresh
processes.  Otherwise it runs the closed loop (one client: each op starts
when the previous one has finished), times set-up in fresh processes
before, during and after the loop, and then runs the correctness gate; or,
with ``--trace 1``, it runs each input once traced and then once untraced.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import time_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
# fresh processes timed for setup_s at each of three moments of a run: before
# the loop, halfway through it, and after it.  One set-up takes about 0.3 s
# (0.7 s on many-small), varies by about 20% from one process to the next
# and drifts with the host over tens of seconds, so probes spread over the
# run keep one moment from deciding the median.
SETUP_PROBES = 5
# loop seconds between two timings of the reference computation: one
# timing (about 0.22 s) before every op of the one-input workloads, and one
# per two seconds of many-small's ops
REF_EVERY_S = 2.0


def _import_fpgb():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import fpgb

    if os.path.dirname(os.path.dirname(os.path.abspath(fpgb.__file__))) != src:
        raise SystemExit(f"fpgb was imported from {fpgb.__file__}, not from {src}")


def fresh(case):
    """A private copy of a parsed case, so no op starts with caches an earlier op filled."""
    return copy.deepcopy(case)


def run_ops(workload, cases, tracer=None, first_op: int = 0):
    """One pass of ops; an op that raises is a failure, kept out of the times.

    Returns (windows, outputs, errors): windows[i] is the (start, end) of
    the i-th op that finished, on ``time.perf_counter_ns``.  With a tracer,
    each op's spans carry the op id ``first_op`` + its index in ``cases``.
    """
    windows, outputs, errors = [], [], []
    for i, case in enumerate(cases):
        case = fresh(case)
        if tracer is not None:
            tracer.op = first_op + i
        t0 = time.perf_counter_ns()
        try:
            text, payload = workload.op(case)
        except Exception as exc:
            errors.append(f"{case.label}: op raised {exc!r}")
            continue
        finally:
            if tracer is not None:
                tracer.op = None
        windows.append((t0, time.perf_counter_ns()))
        outputs.append((case, text, payload))
    return windows, outputs, errors


def op_seconds(windows) -> list:
    return [(t1 - t0) / 1e9 for t0, t1 in windows]


def setup_probes(args, count: int) -> list:
    """(set-up seconds, reference seconds) of ``count`` fresh processes.

    The processes start one at a time.  The reference computation is timed
    once before and once after them, and the mean of the two is paired with
    each set-up time.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    refs = [time_reference()]
    times = []
    for _ in range(count):
        t0 = time.monotonic()
        proc = subprocess.run([*cmd, "--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    refs.append(time_reference())
    ref = statistics.mean(refs)
    return [(t, ref) for t in times]


def run_loop(workload, cases, seconds: float, between=lambda: None):
    """Closed loop for ``seconds``: ops cycle through ``cases`` in order.

    One untimed op of the first input, and one untimed reference
    computation, warm the process up first.  The loop starts no op once
    ``seconds`` have passed and every input has run at least once.  Before
    the first op, after the last, and between ops whenever ``REF_EVERY_S``
    of loop time has passed since the last one, it times the reference
    computation.  ``between`` runs once, when half of ``seconds`` has
    passed.  Neither counts as loop time.

    Returns a dict: ``ops_s`` (each finished op), ``blocks_s`` (the loop
    time each op took, its private copy of the input included), ``refs_s``
    (for each op, the mean of the reference times just before and just
    after it), ``outputs``, ``errors`` and ``peak_rss_mb``, read once every
    input has run so that it does not grow with the number of ops.
    """
    _, outputs, errors = run_ops(workload, cases[:1])
    time_reference()
    ops_s, blocks_s, ref_index, refs = [], [], [], [time_reference()]
    loop_s = since_ref = 0.0
    peak_mb = None
    halfway = False
    done = 0
    while loop_s < seconds or done < len(cases):
        if since_ref >= REF_EVERY_S:
            refs.append(time_reference())
            since_ref = 0.0
        start = time.perf_counter()
        w, o, e = run_ops(workload, [cases[done % len(cases)]])
        block = time.perf_counter() - start
        loop_s += block
        since_ref += block
        if w:
            ops_s += op_seconds(w)
            blocks_s.append(block)
            ref_index.append(len(refs) - 1)
        outputs += o
        errors += e
        done += 1
        if done == len(cases):
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not halfway and loop_s >= seconds / 2:
            halfway = True
            between()
    refs.append(time_reference())
    if not halfway:
        between()
    return {
        "ops_s": ops_s,
        "blocks_s": blocks_s,
        "refs_s": [(refs[i] + refs[i + 1]) / 2 for i in ref_index],
        "outputs": outputs,
        "errors": errors,
        "peak_rss_mb": peak_mb,
    }


def gate(workload, outputs, expected: dict) -> list:
    """Failure reasons, one per failed op (empty when every op is correct).

    The workload's own check runs on the first output of each input; every
    later output of that input must be the same text.
    """
    from workloads import sha256

    failures = []
    first: dict = {}
    for case, text, payload in outputs:
        digest = sha256(text)
        if case.label in first:
            ok, want = first[case.label]
            if digest != want:
                failures.append(f"{case.label}: output differs between repeats")
            elif not ok:
                failures.append(f"{case.label}: repeat of a failed output")
            continue
        try:
            reason = workload.check(case, text, payload, expected)
        except Exception as exc:  # a crashing check is a failed op, not a crashed benchmark
            reason = f"{case.label}: check raised {exc!r}"
        first[case.label] = (reason is None, digest)
        if reason is not None:
            failures.append(reason)
    return failures


def traced_run(workload, cases, tracer, expected: dict) -> dict:
    """Each input once traced, then at once untraced; digests must agree.

    Alternating per input keeps slow drift of the host out of the
    traced-to-untraced time ratio.  The traced op runs first so that its
    ``psge_reduce`` calls, not an untraced op of the same input, raise the
    process's peak RSS that ``sparselin.peak_rss_mb`` reads.
    """
    from tracer import summarize
    from workloads import sha256

    untraced_w, untraced, traced_w, traced, errors = [], [], [], [], []
    for i, case in enumerate(cases):
        tracer.install()
        try:
            w, o, e = run_ops(workload, [case], tracer, first_op=i)
        finally:
            tracer.uninstall()
        traced_w += w
        traced += o
        w, o, e2 = run_ops(workload, [case])
        untraced_w += w
        untraced += o
        errors += e + e2
    failures = errors + gate(workload, traced, expected)
    plain = {case.label: sha256(text) for case, text, _ in untraced}
    for case, text, _ in traced:
        if plain.get(case.label) != sha256(text):
            failures.append(f"{case.label}: traced digest differs from untraced digest")
    untraced_s, traced_s = op_seconds(untraced_w), op_seconds(traced_w)
    return {
        "attempted": len(cases),
        "failed": len({f.split(": ", 1)[0] for f in failures}),
        "failures": failures,
        "metrics": summarize(tracer.spans, traced_w, sum(untraced_s), sum(traced_s)),
        "ops_s": traced_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    _import_fpgb()
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload]
    cases = workload.make_cases(args.seed)
    setup_s = time.monotonic() - args.t0
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(EXPECTED) as fh:
        expected = json.load(fh)

    if tracer is not None:
        out = traced_run(workload, cases, tracer, expected)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    else:
        before = setup_probes(args, SETUP_PROBES)
        setups = [(setup_s, before[0][1])] + before
        loop = run_loop(
            workload, cases, args.seconds, lambda: setups.extend(setup_probes(args, SETUP_PROBES))
        )
        setups += setup_probes(args, SETUP_PROBES)
        outputs, errors = loop.pop("outputs"), loop.pop("errors")
        failures = errors + gate(workload, outputs, expected)
        out = {
            **loop,
            "attempted": len(outputs) + len(errors),
            "failed": len(failures),
            "failures": failures,
            "setups": setups,
        }
    out["setup_s"] = setup_s
    out["inputs"] = len(cases)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
