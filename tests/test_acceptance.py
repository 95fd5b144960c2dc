"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 3-6 and 9 share the batches captured from the criterion-7
oracle-equivalence runs, so the whole suite stays within its time budgets.
"""

import numpy as np
import pytest

from fpgb.bulk import ExecPolicy
from fpgb.errors import ProbabilisticFailureError
from fpgb.fp import (
    Backend,
    FieldModulus,
    add_vec,
    barrett_reduce_vec,
    is_prime,
    mont_enter_vec,
    mont_leave_vec,
    mont_mul_vec,
    mul_vec,
    naive_mul_vec,
)
from fpgb.groebner import (
    buchberger_reference,
    f4_groebner,
    is_groebner,
    verify_kernel_syzygy,
)
from fpgb.bench import PipelineConfig, make_instance, run_pipeline
from fpgb.monomials import (
    ORDERS,
    Ring,
    count_monomials,
    key_cmp_rows,
    key_pack_vec,
    mon_compare_vec,
)
from fpgb.polynomials import poly_format, poly_mul_mon, soa_pack, soa_polys
from fpgb.sparselin import (
    csr_from_dense,
    csr_from_plan,
    dense_rank,
    left_kernel,
    psge_reduce,
    spmv,
    wiedemann_solve,
)
from fpgb.symbolic import Closure, RowMeta, RowRole, compile_batch, decode_row, plan_to_text
from fpgb.systems import gen_cyclic, gen_katsura, gen_random_quadratic

BIG_P = 2147483629
POLICIES = [ExecPolicy(1), ExecPolicy(2), ExecPolicy(4), ExecPolicy(8),
            ExecPolicy(4, lane_order_seed=13), ExecPolicy(8, lane_order_seed=99)]


def report(criterion, ok, detail):
    line = f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared captured batches from the criterion-7 runs
# ---------------------------------------------------------------------------


def criterion7_instances():
    named = []
    for p in (7, 101, 65537):
        for n in (2, 3, 4):
            named.append((f"cyclic-{n}/F{p}", gen_cyclic(n, p)))
        for n in (1, 2, 3):
            named.append((f"katsura-{n}/F{p}", gen_katsura(n, p)))
    rng = np.random.default_rng(20240817)
    randoms = []
    primes = (7, 101, 65537)
    for i in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        density = float(rng.uniform(0.3, 1.0))
        p = primes[i % 3]
        randoms.append(
            (f"random-{i}(n={n},m={m})/F{p}", gen_random_quadratic(n, m, density, 1000 + i, p))
        )
    return named + randoms


def drive_f4_capturing(ring, polys):
    captures = []
    gb = f4_groebner(
        polys, ring, on_batch=lambda basis, plan, ech, _: captures.append((basis, plan, ech))
    )
    return gb, captures


@pytest.fixture(scope="module")
def oracle_runs():
    runs = []
    for name, (ring, polys) in criterion7_instances():
        gb, captures = drive_f4_capturing(ring, polys)
        runs.append((name, ring, polys, gb, captures))
    return runs


def all_captures(oracle_runs):
    for name, ring, polys, gb, captures in oracle_runs:
        for basis_before, plan, ech in captures:
            yield name, ring, basis_before, plan, ech


# ---------------------------------------------------------------------------


def test_criterion_1_backend_agreement():
    """Exhaustive small primes plus 10^6 random pairs near 2^31; zero tolerance."""
    small = [p for p in range(3, 252) if is_prime(p)]
    mismatches = 0
    for p in small:
        m = FieldModulus(p)
        a, b = np.meshgrid(np.arange(p, dtype=np.uint64), np.arange(p, dtype=np.uint64))
        a, b = a.ravel(), b.ravel()
        want = a * b % np.uint64(p)
        if not np.array_equal(naive_mul_vec(a, b, m), want):
            mismatches += 1
        if not np.array_equal(barrett_reduce_vec(a * b, m), want):
            mismatches += 1
        mont = mont_leave_vec(mont_mul_vec(mont_enter_vec(a, m), mont_enter_vec(b, m), m), m)
        if not np.array_equal(mont, want):
            mismatches += 1
        if not np.array_equal(add_vec(a, b, m), (a + b) % np.uint64(p)):
            mismatches += 1
    m = FieldModulus(BIG_P)
    rng = np.random.default_rng(1)
    a = rng.integers(0, BIG_P, 1_000_000, dtype=np.uint64)
    b = rng.integers(0, BIG_P, 1_000_000, dtype=np.uint64)
    want = a * b % np.uint64(BIG_P)
    for backend in Backend:
        mb = FieldModulus(BIG_P, backend)
        if not np.array_equal(mul_vec(a, b, mb), want):
            mismatches += 1
    if not np.array_equal(add_vec(a, b, m), (a + b) % np.uint64(BIG_P)):
        mismatches += 1
    report(1, mismatches == 0,
           f"{len(small)} exhaustive primes + 10^6 pairs at p={BIG_P}, {mismatches} mismatches")


def test_criterion_2_key_order_refinement():
    """10^5 random pairs per order per n in 2..8; key order == term order."""
    total = 0
    bad = 0
    m = FieldModulus(7)
    for order in ORDERS:
        for n in range(2, 9):
            ring = Ring([f"x{i}" for i in range(n)], order, m)
            rng = np.random.default_rng(n * 100 + len(order))
            u = rng.integers(0, 31, (100_000, n))
            v = rng.integers(0, 31, (100_000, n))
            key_cmp = key_cmp_rows(key_pack_vec(u, ring), key_pack_vec(v, ring))
            direct = mon_compare_vec(u, v, ring)
            bad += int((key_cmp != direct).sum())
            total += len(u)
    report(2, bad == 0, f"{total} pairs across {len(ORDERS)} orders x n=2..8, {bad} mismatches")


def synthetic_batches(count=100):
    """Seeded random (rows, basis) batch inputs for the determinism suite."""
    from fpgb.symbolic import select_rows
    from fpgb.monomials import mon_lcm

    rng = np.random.default_rng(9157)
    out = []
    made = 0
    while made < count:
        p = (7, 101, 65537)[made % 3]
        n = int(rng.integers(2, 5))
        ring = Ring([f"x{i}" for i in range(n)], "grevlex", FieldModulus(p))
        polys = []
        while len(polys) < 4:
            from fpgb.polynomials import poly_normalize

            terms = [
                (tuple(int(x) for x in rng.integers(0, 4, n)), int(rng.integers(0, p)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            f = poly_normalize(terms, ring)
            if not f.is_zero():
                polys.append(f)
        basis = soa_pack(polys, ring)
        lcms, fi, gi = [], [], []
        for pid in range(int(rng.integers(1, 4))):
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            lcms.append(mon_lcm(polys[i].lm(), polys[j].lm()))
            fi.append(i)
            gi.append(j)
        rows = select_rows(lcms, fi, gi, basis)
        out.append((rows, basis, polys))
        made += 1
    return out


def test_criterion_3_fbsp_determinism(oracle_runs):
    """Byte-identical plans across worker counts and shuffled lane orders."""
    checked = 0
    for rows, basis, _ in synthetic_batches(100):
        texts = {
            plan_to_text(compile_batch(rows, basis, Closure.ONE_STEP_REDUCTION, pol))
            for pol in POLICIES
        }
        assert len(texts) == 1
        checked += 1
    recompiled = 0
    for name, ring, soa, plan, _ in all_captures(oracle_runs):
        base_rows = RowMeta(plan.row_meta.rows[plan.row_meta.role == RowRole.SPOLY_HALF.value])
        texts = {plan_to_text(compile_batch(base_rows, soa, Closure.ONE_STEP_REDUCTION, pol))
                 for pol in POLICIES[:4]}
        texts.add(plan_to_text(plan))
        assert len(texts) == 1, f"plan divergence in {name}"
        recompiled += 1
    report(3, True, f"100 synthetic batches x {len(POLICIES)} policies, "
                    f"{recompiled} criterion-7 batches x 4 worker counts, all byte-identical")


def test_criterion_4_race_freedom(oracle_runs):
    """Row segments of every plan exactly partition [0, M)."""
    plans = 0
    for _, _, _, plan, _ in all_captures(oracle_runs):
        cover = np.zeros(plan.counters.M, dtype=np.int64)
        for i in range(plan.n_rows):
            cover[plan.row_ptr[i]:plan.row_ptr[i + 1]] += 1
        assert (cover == 1).all()
        plan.validate()
        plans += 1
    for rows, basis, _ in synthetic_batches(20):
        plan = compile_batch(rows, basis)
        cover = np.zeros(plan.counters.M, dtype=np.int64)
        for i in range(plan.n_rows):
            cover[plan.row_ptr[i]:plan.row_ptr[i + 1]] += 1
        assert (cover == 1).all()
        plans += 1
    report(4, True, f"{plans} plans, all segment partitions exact")


def test_criterion_5_dictionary_and_materialization(oracle_runs):
    """Dictionary equals the naive support union; decode matches the shift oracle."""
    from fpgb.monomials import key_unpack_vec

    batches = 0
    for name, ring, basis_before, plan, _ in all_captures(oracle_runs):
        polys = soa_polys(basis_before)
        meta = list(zip(plan.row_meta.shift.tolist(), plan.row_meta.basis_index.tolist()))
        support = set()
        for shift, k in meta:
            shifted = poly_mul_mon(tuple(shift), polys[k])
            support.update(e for e, _ in shifted.terms)
        got = {tuple(int(x) for x in e) for e in key_unpack_vec(plan.dict_keys, ring)}
        assert got == support, f"dictionary oracle failed in {name}"
        for i, (shift, k) in enumerate(meta):
            want = poly_mul_mon(tuple(shift), polys[k])
            assert decode_row(plan, i).terms == want.terms, f"decode failed in {name}"
        batches += 1
    report(5, True, f"{batches} batches, dictionaries and materializations exact")


def test_criterion_6_kernel_syzygy(oracle_runs):
    """Left-kernel vectors (dense and Wiedemann) recombine to the zero polynomial."""
    vectors = 0
    batches = 0
    prob_failures = 0
    for name, ring, basis_before, plan, _ in all_captures(oracle_runs):
        polys = soa_polys(basis_before)
        A = csr_from_plan(plan, ring.modulus)
        kb = left_kernel(A, count=max(1, A.n_rows), seed=7)
        rep = verify_kernel_syzygy(plan, polys, kb)
        assert rep.ok, f"dense path in {name}: {rep.detail}"
        vectors += kb.dimension_found
        if kb.dimension_found:
            # independent engine on the same question, verified the same way
            try:
                wkb = wiedemann_solve(
                    csr_from_dense(A.to_dense().T, ring.modulus), seed=11,
                    max_vectors=A.n_rows - dense_rank(A.to_dense(), ring.modulus),
                )
                rep2 = verify_kernel_syzygy(plan, polys, wkb)
                assert rep2.ok, f"wiedemann path in {name}: {rep2.detail}"
                vectors += wkb.dimension_found
            except ProbabilisticFailureError as exc:
                prob_failures += 1
                assert exc.seed_trail, "probabilistic failure must carry its seed trail"
                print(f"criterion 6: logged probabilistic failure in {name}: {exc}")
        batches += 1
    report(6, True, f"{batches} support-closed batches, {vectors} kernel vectors verified, "
                    f"{prob_failures} logged probabilistic failures")


def test_criterion_7_oracle_equivalence(oracle_runs):
    """f4 equals the Buchberger oracle byte for byte; outputs pass is_groebner."""
    checked = 0
    for name, ring, polys, gb_f4, _ in oracle_runs:
        gb_b = buchberger_reference(polys, ring)
        t1 = [poly_format(f) for f in gb_f4]
        t2 = [poly_format(f) for f in gb_b]
        assert t1 == t2, f"oracle disagreement on {name}"
        assert is_groebner(gb_f4, ring).ok, f"Buchberger criterion fails on {name}"
        checked += 1
    report(7, True, f"{checked} systems (named families x 3 primes + 50 random), byte-equal bases")


def test_criterion_8_rank_agreement():
    """psge rank == dense rank on 200 matrices; Wiedemann nullity on 50 singulars."""
    rng = np.random.default_rng(606)
    densities = [0.01, 0.05, 0.2]
    for trial in range(200):
        m = FieldModulus((7, 101, BIG_P)[trial % 3])
        density = densities[trial % 3]
        r = int(rng.integers(10, 201))
        c = int(rng.integers(10, 201))
        mat = np.zeros((r, c), dtype=np.uint64)
        mask = rng.random((r, c)) < density
        mat[mask] = rng.integers(1, m.p, int(mask.sum()))
        res = psge_reduce(csr_from_dense(mat, m), panel_width=int(rng.integers(8, 257)))
        assert res.rank == dense_rank(mat, m), f"rank mismatch on trial {trial}"
    successes = 0
    failures = []
    m = FieldModulus(BIG_P)
    for trial in range(50):
        n = 60
        rank = int(rng.integers(40, 56))
        L = rng.integers(0, m.p, (n, rank), dtype=np.uint64)
        R = rng.integers(0, m.p, (rank, n), dtype=np.uint64)
        mat = np.zeros((n, n), dtype=np.uint64)
        for i in range(n):
            acc = (L[i][:, None] * R) % np.uint64(m.p)
            mat[i] = acc.sum(axis=0, dtype=np.uint64) % np.uint64(m.p)
        A = csr_from_dense(mat, m)
        nullity = n - dense_rank(mat, m)
        try:
            kb = wiedemann_solve(A, seed=trial, max_vectors=nullity)
            ok = kb.dimension_found == nullity and all(
                (spmv(A, v) == 0).all() for v in kb.vectors
            )
        except ProbabilisticFailureError as exc:
            ok = False
            print(f"criterion 8: logged probabilistic failure on trial {trial}: {exc}")
        if ok:
            successes += 1
        else:
            failures.append(trial)
    rate = successes / 50
    report(8, rate >= 0.99,
           f"200 psge/dense rank agreements; wiedemann nullity success {successes}/50"
           + (f", failures logged: {failures}" if failures else ""))


def test_criterion_9_counter_fidelity(oracle_runs):
    """count_monomials vs enumeration; M == row-length sum == instrumented keys."""
    def enum(n, d):
        if n == 1:
            return d + 1
        return sum(enum(n - 1, d - e) for e in range(d + 1))

    for n in range(1, 5):
        for d in range(0, 7):
            assert count_monomials(n, d) == enum(n, d)
    batches = 0
    for _, _, _, plan, _ in all_captures(oracle_runs):
        lens = np.diff(plan.row_ptr)
        assert plan.counters.M == int(lens.sum()) == plan.counters.keys_emitted
        assert plan.counters.keys_generated_total >= plan.counters.M
        batches += 1
    report(9, True, f"binomial table n<=4,d<=6 exact; {batches} batches with M == key count")


def test_criterion_10_protocol_conformance():
    """bench on cyclic-4/F101: mandated fields present, digest worker-stable."""
    digests = set()
    flat = None
    for workers in (1, 2, 4, 8):
        cfg = PipelineConfig(workers=workers)
        ring, polys, desc = make_instance("cyclic", cfg, n=4, p=101, seed=0)
        rep, _, _ = run_pipeline(ring, polys, cfg, desc)
        digests.add(rep.digest)
        flat = dict(rep.flat_items())
    required = {"instance.family", "instance.p", "instance.order", "instance.seed",
                "environment.version", "environment.worker_lanes",
                "totals.fill_generated", "digest"}
    for i in range(len(rep.batches)):
        required |= {
            f"batch.{i}.N", f"batch.{i}.M", f"batch.{i}.nnz",
            f"batch.{i}.timings_ns.dict_build",
            f"batch.{i}.timings_ns.row_assemble",
            f"batch.{i}.timings_ns.numeric_core",
        }
    missing = sorted(required - set(flat))
    assert not missing, f"missing report fields: {missing}"
    report(10, len(digests) == 1,
           f"all mandated fields present; digest identical across workers 1,2,4,8")
