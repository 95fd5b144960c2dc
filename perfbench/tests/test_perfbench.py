"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

The subprocess tests run the real command on the verify workload with a
one-second budget (a warm-up op and one timed op), so the file takes about
a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import fpgb.groebner  # noqa: E402
import fpgb.sparselin  # noqa: E402
import fpgb.systems  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from make_expected import sympy_basis_text  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    VERIFY_CHECKS,
    WORKLOADS,
    Case,
    Workload,
    check_expected_basis,
    check_groebner,
    check_verdict,
    katsura_cases,
    many_small_cases,
    sha256,
    solve,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed_metrics(stdout: str) -> dict:
    """Every metric the command printed: the 'metric' lines and the JSON record."""
    lines = stdout.strip().splitlines()
    names = {}
    for ln in lines[:-1]:
        if ln.startswith("metric "):
            name, rest = ln[len("metric "):].split(" = ", 1)
            names[name] = rest.split()[1]
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert set(record["metrics"]) == set(names)
    for name, m in record["metrics"].items():
        assert m["unit"] == names[name]
    return record


def test_tracer_leaves_digests_unchanged():
    cases = many_small_cases(3, count=6) + katsura_cases(3)(0)
    wl = Workload(lambda seed: cases, solve, check_groebner)
    plain = [sha256(solve(worker.fresh(c))[0]) for c in cases]
    tracer = Tracer()
    out = worker.traced_run(wl, cases, tracer, {})
    assert out["failed"] == 0, out["failures"]
    tracer.install()
    try:
        traced = [sha256(solve(worker.fresh(c))[0]) for c in cases]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert fpgb.groebner.psge_reduce is fpgb.sparselin.psge_reduce
    assert not hasattr(fpgb.groebner.psge_reduce, "__wrapped__")
    names = {s[2] for s in tracer.spans}
    assert {"sparselin.psge_reduce", "symbolic.compile_batch", "bulk.radix_sort"} <= names


def test_self_time_excludes_children_and_tracer():
    # id, parent, name, op, start, end, nested, attrs, tracer ns
    spans = [
        (0, None, "bench.run_pipeline", 0, 0, 100, False, None, 0),
        (1, 0, "groebner.f4_step", 0, 10, 60, False, None, 4),
        (2, 1, "sparselin.psge_reduce", 0, 20, 50, False, {"rank": 3, "fill_generated": 1}, 6),
    ]
    m = summarize(spans, [(0, 100)], 1.0, 1.1)
    assert m["groebner.f4_step.self_s"] == pytest.approx(14e-9)
    assert m["sparselin.psge_reduce.s"] == pytest.approx(30e-9)
    assert m["bench.run_pipeline.self_s"] == pytest.approx(46e-9)
    assert m["trace.tracer_s"] == pytest.approx(10e-9)
    # 44 ns of stages in 90 ns of op time once the tracer's 10 ns are taken out
    assert m["trace.unattributed_share"] == pytest.approx(46 / 90)
    assert m["trace.overhead"] == pytest.approx(0.1)


def test_metric_names_match_benchmark_json():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(summarize([], [], 0.0, 0.0)) == per_layer
    ref = run.REFERENCE_S
    result = {"ops_s": [1.0, 2.0], "blocks_s": [1.0, 2.0], "refs_s": [ref, ref], "inputs": 1,
              "peak_rss_mb": 10.0, "setups": [(0.5, ref), (0.6, ref)]}
    metrics, _, raw = run.end_to_end(result, 0.75)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert metrics == raw
    assert set(run.TAIL_PERCENTILE) == {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_times_are_scaled_to_the_reference_speed():
    # the host ran at half the reference speed around the second op and the set-ups
    ref = run.REFERENCE_S
    result = {"ops_s": [1.0, 4.0], "blocks_s": [1.5, 4.5], "refs_s": [ref, 2 * ref], "inputs": 1,
              "peak_rss_mb": 10.0, "setups": [(0.8, 2 * ref), (1.2, 2 * ref)]}
    metrics, _, raw = run.end_to_end(result, 0.75)
    assert metrics["op_s.median"][0] == pytest.approx(1.5) and raw["op_s.median"][0] == pytest.approx(2.5)
    assert metrics["op_s.tail"][0] == pytest.approx(2.0)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 3.75)
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    assert metrics["peak_rss_mb"] == raw["peak_rss_mb"]


def test_inputs_follow_the_seed():
    def texts(cases):
        return [fpgb.systems.format_system(c.ring, c.polys) for c in cases]

    a, b, c = (many_small_cases(s, count=8) for s in (5, 5, 6))
    assert texts(a) == texts(b) != texts(c)
    assert [x.ring.order for x in a] == ["lex", "deglex"] * 4


def test_gate_catches_wrong_answers():
    case = katsura_cases(3)(0)[0]
    text, basis = solve(worker.fresh(case))
    right = {"katsura-3": {"basis_sha256": sha256(sympy_basis_text(case.ring, case.polys))}}
    wrong = {"katsura-3": {"basis_sha256": "0" * 64}}
    assert check_expected_basis(case, text, basis, right) is None
    assert check_expected_basis(case, text, basis, wrong) is not None
    assert check_groebner(case, text, basis, {}) is None
    assert check_groebner(case, text, basis[1:], {}) is not None
    all_pass = [(name, True, "") for name in VERIFY_CHECKS]
    assert check_verdict(case, "", all_pass, {}) is None
    assert check_verdict(case, "", all_pass[1:], {}) is not None
    assert check_verdict(case, "", [*all_pass[1:], (VERIFY_CHECKS[0], False, "")], {}) is not None


def test_wrong_expected_digest_counts_in_fail_rate():
    # the worker counts one failure per failed op; fail_rate = failed / attempted
    case = katsura_cases(3)(0)[0]
    text, basis = solve(worker.fresh(case))
    outputs = [(case, text, basis)] * 2
    wl = Workload(lambda seed: [case], solve, check_expected_basis)
    right = {"katsura-3": {"basis_sha256": sha256(text)}}
    wrong = {"katsura-3": {"basis_sha256": "0" * 64}}
    assert worker.gate(wl, outputs, right) == []
    assert len(worker.gate(wl, outputs, wrong)) == len(outputs)


def test_loop_warms_up_and_runs_every_input():
    cases = [Case(f"c{i}", None, []) for i in range(3)]
    wl = Workload(lambda seed: cases, lambda case: (case.label, None), None)
    calls = []
    loop = worker.run_loop(wl, cases, 0.0, lambda: calls.append(1))
    # one untimed warm-up op of the first input, then each input once
    assert [case.label for case, _, _ in loop["outputs"]] == ["c0", "c0", "c1", "c2"]
    assert len(loop["ops_s"]) == len(loop["blocks_s"]) == len(loop["refs_s"]) == 3
    assert loop["errors"] == [] and calls == [1] and loop["peak_rss_mb"] > 0
    assert all(r > 0 for r in loop["refs_s"])


def test_gate_checks_first_output_and_compares_repeats():
    checked = []

    def check(case, text, payload, expected):
        checked.append(text)
        return None if text == "right" else f"{case.label}: wrong"

    a, b = Case("a", None, []), Case("b", None, [])
    wl = Workload(lambda seed: [a, b], None, check)
    outputs = [(a, "right", None), (b, "wrong", None), (a, "right", None), (a, "other", None),
               (b, "wrong", None)]
    failures = worker.gate(wl, outputs, {})
    assert checked == ["right", "wrong"]
    assert failures == ["b: wrong", "a: output differs between repeats", "b: repeat of a failed output"]


def test_command_prints_benchmark_json_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", "verify", "--seed", "2", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        record = _printed_metrics(proc.stdout)
        assert record["correct"] is True and record["failed"] == 0
        assert set(record["metrics"]) == {m["name"] for m in SPEC[key]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "many-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
