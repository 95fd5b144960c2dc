"""The benchmark's workloads: inputs from the seed, the op, and the correctness gate.

Why these three (README.md has the layer predictions):

* ``big-batch``: F4 on katsura-6 at p=65537, grevlex, psge, one worker.
  Seven batches; the numeric core takes about three quarters of the time.
* ``many-small``: random quadratic systems (n=3, m=3, density 0.5) drawn
  from the seed, alternating lex and deglex, at p=2147483629.  Every
  system is a handful of tiny batches, so per-batch fixed costs dominate.
* ``verify``: the invariant suites of ``fpgb verify`` on katsura-4 at
  p=65537: kernel checks, the Buchberger oracle and the multi-lane reruns.

An op is one solve from a parsed system to reduced-basis text, or one full
verify verdict.  Gates run after the timed loop and never inside it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fpgb.bench import PipelineConfig, run_pipeline, verify_instance
from fpgb.groebner import is_groebner, normal_form
from fpgb.systems import format_system, gen_katsura, gen_random_quadratic, parse_system

P16 = 65537
P31 = 2147483629
# one op lasts about 2 s (big-batch) and 1.7 s (verify) at the reference
# speed of hostspeed.py, so a run holds about ten ops and its median does
# not hang on one or two of them, as it did with katsura-7 and katsura-5
# (15-24 s an op)
BIG_BATCH_KATSURA = 6
VERIFY_KATSURA = 4
# enough systems that the median and p90 of a pass hardly depend on which
# systems the seed drew: with a few dozen, the spread of the median across
# seeds was 10-25%; 384 brings it near 5% and one pass fits in a run
MANY_SMALL_SYSTEMS = 384
# every check family verify_instance records; an all-PASS verdict lists each,
# so a check that silently stops running fails the gate
VERIFY_CHECKS = (
    "plan_structure",
    "dictionary_oracle",
    "row_decode_oracle",
    "closure_soundness",
    "kernel_syzygy_dense",
    "kernel_syzygy_wiedemann",
    "key_instrumentation",
    "engine_agreement",
    "buchberger_criterion",
    "digest_worker_stability",
)


@dataclass
class Case:
    """One op input: a system the benchmark generated, parsed by fpgb."""

    label: str
    ring: object
    polys: list


@dataclass
class Workload:
    make_cases: Callable[[int], list]
    op: Callable[[Case], tuple]
    check: Callable[[Case, str, object, dict], str | None]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _parsed(label: str, ring, polys, order: str | None = None) -> Case:
    text = format_system(ring, polys)
    if order is not None:
        text = text.replace(f"order {ring.order}\n", f"order {order}\n", 1)
    ring, polys = parse_system(text)
    return Case(label, ring, polys)


def katsura_cases(n: int):
    def make(seed: int) -> list:
        # a fixed instance: the seed is recorded but cannot change it
        return [_parsed(f"katsura-{n}", *gen_katsura(n, P16))]

    return make


def many_small_cases(seed: int, count: int = MANY_SMALL_SYSTEMS) -> list:
    seeds = np.random.SeedSequence(seed).generate_state(count).tolist()
    cases = []
    for i, s in enumerate(seeds):
        order = "lex" if i % 2 == 0 else "deglex"
        ring, polys = gen_random_quadratic(3, 3, 0.5, s, P31)
        cases.append(_parsed(f"random-{s}-{order}", ring, polys, order))
    return cases


def solve(case: Case) -> tuple:
    """F4 with psge and one worker, from input system to reduced-basis text."""
    _, text, basis = run_pipeline(case.ring, case.polys, PipelineConfig())
    return text, basis


def verdict_text(checks) -> str:
    return "".join(f"{'PASS' if ok else 'FAIL'} {name}\n" for name, ok, _ in checks)


def verify(case: Case) -> tuple:
    checks = verify_instance(case.ring, case.polys, PipelineConfig())
    return verdict_text(checks), checks


def check_expected_basis(case: Case, text: str, basis, expected: dict) -> str | None:
    want = expected[case.label]["basis_sha256"]
    if sha256(text) != want:
        return f"{case.label}: basis digest {sha256(text)[:12]} != expected {want[:12]}"
    return None


def check_groebner(case: Case, text: str, basis, expected: dict) -> str | None:
    if not is_groebner(basis, case.ring).ok:
        return f"{case.label}: output fails the Buchberger criterion"
    for f in case.polys:
        if not normal_form(f, basis).is_zero():
            return f"{case.label}: an input does not reduce to zero modulo the output"
    return None


def check_verdict(case: Case, text: str, checks, expected: dict) -> str | None:
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        return f"{case.label}: verify reported FAIL for {', '.join(failed)}"
    families = {name for name, _, _ in checks}
    if families != set(VERIFY_CHECKS):
        missing = sorted(set(VERIFY_CHECKS) - families)
        extra = sorted(families - set(VERIFY_CHECKS))
        return f"{case.label}: verdict check families differ: missing {missing}, unexpected {extra}"
    return None


WORKLOADS = {
    "big-batch": Workload(katsura_cases(BIG_BATCH_KATSURA), solve, check_expected_basis),
    "many-small": Workload(many_small_cases, solve, check_groebner),
    "verify": Workload(katsura_cases(VERIFY_KATSURA), verify, check_verdict),
}
