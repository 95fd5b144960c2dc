"""Sparse kernels against the dense oracle: SpMM, PSGE, BM, Wiedemann."""

import numpy as np
import pytest

from fpgb import groebner, sparselin
from fpgb.bench import PipelineConfig, make_instance, run_pipeline
from fpgb.errors import (
    PreconditionError,
    ProbabilisticFailureError,
    PropertyViolationError,
    SizeCapError,
)
from fpgb.fp import Backend, FieldModulus
from fpgb.monomials import Ring
from fpgb.polynomials import poly_parse, soa_pack
from fpgb.sparselin import (
    CsrMatrix,
    berlekamp_massey,
    csr_from_dense,
    csr_from_plan,
    csr_transpose,
    dense_gauss,
    dense_rank,
    left_kernel,
    psge_reduce,
    spmm,
    spmv,
    wiedemann_solve,
)
from fpgb.symbolic import compile_batch, select_rows, Closure

M7 = FieldModulus(7)
M101 = FieldModulus(101)
MBIG = FieldModulus(2147483629)


def random_sparse(rng, r, c, density, m):
    mat = np.zeros((r, c), dtype=np.uint64)
    mask = rng.random((r, c)) < density
    mat[mask] = rng.integers(1, m.p, int(mask.sum()))
    return mat


def example_plan_matrix():
    ring = Ring(["x", "y"], "grevlex", M7)
    basis = soa_pack([poly_parse("x^2 - y", ring), poly_parse("x*y - 1", ring)], ring)
    rows = select_rows([(2, 1)], [0], [1], basis)
    plan = compile_batch(rows, basis, Closure.SUPPORT_ONLY)
    return plan, csr_from_plan(plan, M7)


def test_csr_from_plan_example():
    plan, A = example_plan_matrix()
    assert A.row_ptr.tolist() == [0, 2, 4]
    assert A.n_rows == 2 and A.n_cols == 3
    assert A.to_dense().tolist() == [[1, 6, 0], [1, 0, 6]]


def test_csr_from_empty_plan():
    ring = Ring(["x", "y"], "grevlex", M7)
    basis = soa_pack([poly_parse("x - 1", ring)], ring)
    plan = compile_batch([], basis)
    A = csr_from_plan(plan, M7)
    assert A.n_rows == 0 and A.n_cols == 0 and A.nnz() == 0


def test_transpose_round_trip():
    rng = np.random.default_rng(3)
    eye = csr_from_dense(np.eye(5, dtype=np.uint64), M7)
    assert np.array_equal(csr_transpose(eye).to_dense(), np.eye(5, dtype=np.uint64))
    for _ in range(20):
        mat = random_sparse(rng, 13, 9, 0.3, M101)
        A = csr_from_dense(mat, M101)
        assert np.array_equal(csr_transpose(csr_transpose(A)).to_dense(), mat)
        assert np.array_equal(csr_transpose(A).to_dense(), mat.T)
    rowvec = csr_from_dense(np.array([[1, 2, 3]], dtype=np.uint64), M7)
    t = csr_transpose(rowvec)
    assert t.n_rows == 3 and t.n_cols == 1


def test_transpose_is_built_once_and_linked_back():
    rng = np.random.default_rng(4)
    for mat in (random_sparse(rng, 13, 9, 0.3, M101), np.zeros((4, 6), dtype=np.uint64)):
        A = csr_from_dense(mat, M101)
        At = csr_transpose(A)
        assert csr_transpose(A) is At
        assert csr_transpose(At) is A
        assert np.array_equal(At.to_dense(), mat.T)


def test_spmm_identity_zero_and_oracle():
    rng = np.random.default_rng(9)
    eye = csr_from_dense(np.eye(6, dtype=np.uint64), M101)
    X = rng.integers(0, 101, (6, 4), dtype=np.uint64)
    assert np.array_equal(spmm(eye, X), X)
    assert np.array_equal(spmm(eye, np.zeros((6, 2), dtype=np.uint64)), np.zeros((6, 2), dtype=np.uint64))
    for m in (M7, M101, MBIG):
        for backend in Backend:
            mb = FieldModulus(m.p, backend)
            mat = random_sparse(rng, 50, 50, 0.2, mb)
            A = csr_from_dense(mat, mb)
            X = rng.integers(0, mb.p, (50, 4), dtype=np.uint64)
            want = np.zeros((50, 4), dtype=np.uint64)
            for j in range(4):  # dense oracle with python ints
                for i in range(50):
                    want[i, j] = sum(int(a) * int(x) for a, x in zip(mat[i], X[:, j])) % mb.p
            assert np.array_equal(spmm(A, X), want)


def test_spmv_shapes_and_mismatch():
    A = csr_from_dense(np.ones((2, 3), dtype=np.uint64), M7)
    y = spmv(A, np.array([1, 2, 3], dtype=np.uint64))
    assert y.tolist() == [6, 6]
    with pytest.raises(PreconditionError):
        spmm(A, np.ones((4, 1), dtype=np.uint64))


def test_spmm_associativity_small():
    rng = np.random.default_rng(12)
    mat = random_sparse(rng, 20, 20, 0.3, M101)
    A = csr_from_dense(mat, M101)
    X = rng.integers(0, 101, (20, 3), dtype=np.uint64)
    Y = rng.integers(0, 101, (3, 3), dtype=np.uint64)
    lhs = spmm(A, (X @ Y) % np.uint64(101))
    rhs = (spmm(A, X) @ Y) % np.uint64(101)
    assert np.array_equal(lhs, rhs)


def test_dense_gauss_examples():
    rank, rref, pivots = dense_gauss(np.eye(4, dtype=np.uint64), M7)
    assert rank == 4 and pivots == [0, 1, 2, 3]
    rank2, _, _ = dense_gauss(np.array([[1, 2], [2, 4]], dtype=np.uint64), M7)
    assert rank2 == 1
    with pytest.raises(SizeCapError):
        dense_gauss(np.zeros((513, 1), dtype=np.uint64), M7)


def test_dense_rank_invariant_under_row_shuffles():
    rng = np.random.default_rng(77)
    for _ in range(10):
        mat = random_sparse(rng, 12, 8, 0.4, M101)
        r0 = dense_rank(mat, M101)
        perm = rng.permutation(12)
        assert dense_rank(mat[perm], M101) == r0


def test_psge_worked_example():
    _, A = example_plan_matrix()
    res = psge_reduce(A, panel_width=2)
    assert res.rank == 2
    assert res.pivot_cols == [0, 1]
    assert res.zero_row_count == 0
    # the new row is the monic S-polynomial: y^2 + 6x -> cols [1, 2] vals [1, 6]
    assert len(res.nonpivot_rows) == 1
    lead, cols, vals = res.nonpivot_rows[0]
    assert lead == 1 and cols.tolist() == [1, 2] and vals.tolist() == [1, 6]


def test_psge_already_echelon_is_fixed_point():
    mat = np.array([[1, 2, 0], [0, 1, 3], [0, 0, 1]], dtype=np.uint64)
    res = psge_reduce(csr_from_dense(mat, M7))
    assert res.rank == 3 and res.pivot_cols == [0, 1, 2]
    assert res.zero_row_count == 0


def test_psge_zero_matrix():
    A = CsrMatrix(3, 4, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64),
                  np.zeros(0, dtype=np.uint64), M7)
    res = psge_reduce(A)
    assert res.rank == 0 and res.zero_row_count == 3 and res.pivot_cols == []


def assemble_rows(res, n_cols):
    rows = []
    for lead, cols, vals in res.pivot_rows + res.nonpivot_rows:
        v = np.zeros(n_cols, dtype=np.uint64)
        v[cols] = vals
        rows.append((lead, v))
    rows.sort(key=lambda t: t[0])
    if not rows:
        return np.zeros((0, n_cols), dtype=np.uint64)
    return np.array([v for _, v in rows], dtype=np.uint64)


@pytest.mark.parametrize("p", [7, 101, 2147483629])
@pytest.mark.parametrize("density", [0.01, 0.05, 0.2])
def test_psge_matches_dense_rref(p, density):
    m = FieldModulus(p)
    rng = np.random.default_rng(p % 1000 + int(density * 100))
    for _ in range(6):
        r, c = (int(x) for x in rng.integers(5, 60, 2))
        mat = random_sparse(rng, r, c, density, m)
        A = csr_from_dense(mat, m)
        res = psge_reduce(A, panel_width=int(rng.integers(1, 17)))
        rank, rref, _ = dense_gauss(mat, m)
        assert res.rank == rank
        got = assemble_rows(res, c)
        assert np.array_equal(got, rref[:rank])  # full reduction = RREF rows


def test_psge_row_space_preserved():
    rng = np.random.default_rng(5150)
    m = M101
    for _ in range(10):
        mat = random_sparse(rng, 15, 12, 0.3, m)
        res = psge_reduce(csr_from_dense(mat, m))
        base_rank = dense_rank(mat, m)
        rows = assemble_rows(res, 12)
        if len(rows):
            stacked = np.vstack([mat, rows])
            assert dense_rank(stacked, m) == base_rank


def test_psge_panel_width_does_not_change_result():
    rng = np.random.default_rng(860)
    mat = random_sparse(rng, 30, 25, 0.15, M101)
    A = csr_from_dense(mat, M101)
    base = None
    for w in (1, 4, 64, 256):
        res = psge_reduce(A, panel_width=w)
        got = assemble_rows(res, 25).tobytes()
        base = got if base is None else base
        assert got == base


def test_psge_backend_agreement():
    rng = np.random.default_rng(864)
    mat = random_sparse(rng, 25, 20, 0.25, M101)
    base = None
    for backend in Backend:
        m = FieldModulus(101, backend)
        res = psge_reduce(csr_from_dense(mat, m))
        got = assemble_rows(res, 20).tobytes()
        base = got if base is None else base
        assert got == base


def same_rows(a, b):
    return len(a) == len(b) and all(
        x[0] == y[0] and np.array_equal(x[1], y[1]) and np.array_equal(x[2], y[2])
        for x, y in zip(a, b)
    )


@pytest.mark.parametrize("p", [7, 101, 2147483629])
@pytest.mark.parametrize("density", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("panel_width", [1, 3, 256])
def test_f4_mode_matches_back_reduced_engine(p, density, panel_width):
    m = FieldModulus(p)
    rng = np.random.default_rng(p % 997 + int(density * 100) + panel_width)
    for _ in range(4):
        r, c = (int(x) for x in rng.integers(5, 60, 2))
        mat = random_sparse(rng, r, c, density, m)
        # repeat some rows so leading columns are shared, as F4 batches share them
        mat = np.vstack([mat, mat[rng.integers(0, r, r // 3)]])
        A = csr_from_dense(mat, m)
        f4 = psge_reduce(A, panel_width=panel_width, back_reduce=False)
        full = psge_reduce(A, panel_width=panel_width, back_reduce=True)
        assert f4.rank == full.rank == dense_rank(mat, m)
        assert f4.zero_row_count == full.zero_row_count
        assert f4.pivot_cols == full.pivot_cols
        assert f4.fill_generated == full.fill_generated
        assert same_rows(f4.nonpivot_rows, full.nonpivot_rows)


def test_f4_mode_never_calls_dense_gauss(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense_gauss called on the F4 path")

    rng = np.random.default_rng(4242)
    mats = [random_sparse(rng, 40, 30, 0.1, M101) for _ in range(5)]
    want = [dense_rank(mat, M101) for mat in mats]
    cfg = PipelineConfig()
    ring, polys, _ = make_instance("katsura", cfg, n=3, p=101, seed=0)
    monkeypatch.setattr(sparselin, "dense_gauss", forbidden)
    monkeypatch.setattr(groebner, "dense_gauss", forbidden)
    for mat, rank in zip(mats, want):
        assert psge_reduce(csr_from_dense(mat, M101), back_reduce=False).rank == rank
    assert run_pipeline(ring, polys, cfg)[0].batches


@pytest.mark.parametrize("family, n", [("cyclic", 5), ("katsura", 5)])
def test_driver_digest_matches_back_reduced_engine(monkeypatch, family, n):
    cfg = PipelineConfig()
    ring, polys, desc = make_instance(family, cfg, n=n, p=65537, seed=0)
    f4_report, f4_text, _ = run_pipeline(ring, polys, cfg, desc)

    def full_rref(A, panel_width=256, back_reduce=True):
        return psge_reduce(A, panel_width, back_reduce=True)

    monkeypatch.setattr(groebner, "psge_reduce", full_rref)
    full_report, full_text, _ = run_pipeline(ring, polys, cfg, desc)
    assert f4_report.digest == full_report.digest
    assert f4_text == full_text
    assert [b["rank"] for b in f4_report.batches] == [b["rank"] for b in full_report.batches]


def test_berlekamp_massey_examples():
    m = M101
    # constant sequence -> x - 1
    assert berlekamp_massey([5] * 8, m) == [100, 1]
    # Fibonacci -> x^2 - x - 1
    assert berlekamp_massey([1, 1, 2, 3, 5, 8, 13, 21], m) == [100, 100, 1]
    # zero-shifted sequence -> x
    assert berlekamp_massey([3, 0, 0, 0, 0, 0], m) == [0, 1]


def annihilates(poly, seq, p):
    L = len(poly) - 1
    for k in range(len(seq) - L):
        acc = sum(int(c) * int(seq[k + i]) for i, c in enumerate(poly)) % p
        if acc:
            return False
    return True


def test_berlekamp_massey_lfsr_round_trip():
    rng = np.random.default_rng(2)
    m = M101
    for _ in range(30):
        d = int(rng.integers(1, 11))
        coeffs = [int(x) for x in rng.integers(0, 101, d)]
        if coeffs[0] == 0:
            coeffs[0] = 1
        seq = [int(x) for x in rng.integers(0, 101, d)]
        for k in range(d, 4 * d):
            nxt = sum(coeffs[i] * seq[k - 1 - i] for i in range(d)) % 101
            seq.append(nxt)
        f = berlekamp_massey(seq, m)
        assert len(f) - 1 <= d
        assert annihilates(f, seq, 101)


def test_wiedemann_kernel_zero_matrix_full_space():
    zero = CsrMatrix(3, 3, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64),
                     np.zeros(0, dtype=np.uint64), M101)
    kb = wiedemann_solve(zero, seed=5, max_vectors=3 - dense_rank(zero.to_dense(), M101))
    assert kb.dimension_found == 3


def rank_deficient(rng, n, rank, m):
    """Exact product of n x rank and rank x n uniform factors."""
    L = rng.integers(0, m.p, (n, rank), dtype=np.uint64)
    R = rng.integers(0, m.p, (rank, n), dtype=np.uint64)
    mat = np.zeros((n, n), dtype=np.uint64)
    for i in range(n):
        acc = (L[i][:, None] * R) % np.uint64(m.p)  # each term reduced, sums stay small
        mat[i] = acc.sum(axis=0, dtype=np.uint64) % np.uint64(m.p)
    return mat


def test_wiedemann_kernel_matches_dense_nullity():
    rng = np.random.default_rng(31415)
    m = MBIG
    cases = [(60, 52)] * 4 + [(100, 90)]
    for trial, (n, rank) in enumerate(cases):
        mat = rank_deficient(rng, n, rank, m)
        A = csr_from_dense(mat, m)
        nullity = n - dense_rank(mat, m)
        kb = wiedemann_solve(A, seed=trial, max_vectors=nullity)
        assert kb.dimension_found == nullity
        for v in kb.vectors:
            assert (spmv(A, v) == 0).all()


@pytest.mark.parametrize("shape", [(40, 40), (30, 40)])
def test_wiedemann_builds_each_spmm_chunk_layout_once(monkeypatch, shape):
    rng = np.random.default_rng(shape[0])
    A = csr_from_dense(random_sparse(rng, *shape, 0.1, M101), M101)
    nullity = A.n_cols - dense_rank(A.to_dense(), M101)
    want = wiedemann_solve(A, seed=2, max_vectors=nullity)
    A = csr_from_dense(A.to_dense(), M101)  # a fresh matrix, no layout built yet
    scans = []
    real_scan = sparselin.exclusive_scan
    monkeypatch.setattr(sparselin, "exclusive_scan", lambda lens: scans.append(len(lens)) or real_scan(lens))
    kb = wiedemann_solve(A, seed=2, max_vectors=nullity)
    assert kb.dimension_found == want.dimension_found > 0 and kb.seed_trail == want.seed_trail
    assert all(np.array_equal(v, w) for v, w in zip(kb.vectors, want.vectors))
    # one layout per operator (A, and A^T when A is not square) and the
    # transpose's own row pointers, however many Krylov steps ran
    assert len(scans) == (1 if shape[0] == shape[1] else 3)


def test_wiedemann_zero_target_runs_no_round(monkeypatch):
    rng = np.random.default_rng(8)
    A = csr_from_dense(rank_deficient(rng, 20, 20, MBIG), MBIG)
    calls = []
    monkeypatch.setattr(sparselin, "spmm", lambda *a: calls.append(1))
    kb = wiedemann_solve(A, seed=1, max_vectors=0)
    assert kb.vectors == [] and kb.dimension_found == 0 and kb.seed_trail == ()
    assert calls == []


@pytest.mark.parametrize("max_vectors, block_width", [(-1, 4), (1, 0), (1, -2)])
def test_wiedemann_rejects_a_negative_target_or_an_empty_block(max_vectors, block_width):
    A = csr_from_dense(np.zeros((3, 3), dtype=np.uint64), M101)
    with pytest.raises(PreconditionError):
        wiedemann_solve(A, seed=0, max_vectors=max_vectors, block_width=block_width)


def test_wiedemann_stops_at_the_expected_nullity():
    rng = np.random.default_rng(2718)
    mat = rank_deficient(rng, 60, 57, MBIG)
    A = csr_from_dense(mat, MBIG)
    nullity = 60 - dense_rank(mat, MBIG)
    assert nullity == 3
    kb = wiedemann_solve(A, seed=4, max_vectors=nullity)
    assert kb.dimension_found == len(kb.vectors) == nullity
    assert len(kb.seed_trail) < 12  # stopped before the round budget ran out
    for v in kb.vectors:
        assert (spmv(A, v) == 0).all()
    basis = np.array(kb.vectors, dtype=np.uint64)
    assert dense_rank(basis, MBIG) == nullity


def test_wiedemann_short_of_the_target_fails_loudly():
    rng = np.random.default_rng(2718)
    mat = rank_deficient(rng, 30, 27, MBIG)
    A = csr_from_dense(mat, MBIG)
    nullity = 30 - dense_rank(mat, MBIG)
    with pytest.raises(ProbabilisticFailureError, match=f"found {nullity} of {nullity + 1} kernel vectors") as exc:
        wiedemann_solve(A, seed=4, max_vectors=nullity + 1)
    assert len(exc.value.seed_trail) == 12


def test_left_kernel_above_dense_cap_is_complete(monkeypatch):
    rng = np.random.default_rng(600)
    mat = random_sparse(rng, 30, 600, 0.05, MBIG)
    mat[[26, 27, 28, 29]] = mat[[1, 5, 5, 9]]  # four repeats: nullity 4
    A = csr_from_dense(mat, MBIG)
    assert max(A.n_rows, A.n_cols) > sparselin.DENSE_CAP
    nullity = A.n_rows - psge_reduce(A).rank
    assert nullity == 4

    def no_dense(*args):
        raise AssertionError("the dense route ran above DENSE_CAP")

    monkeypatch.setattr(sparselin, "dense_right_nullspace", no_dense)
    kb = left_kernel(A, count=nullity, seed=3)
    assert kb.dimension_found == len(kb.vectors) == nullity
    assert kb.seed_trail
    dense = mat.astype(object)
    for v in kb.vectors:
        assert not any(x % MBIG.p for x in v.astype(object) @ dense)
    with pytest.raises(ProbabilisticFailureError):
        left_kernel(A, count=nullity + 1, seed=3)


def test_left_kernel_count_zero_and_negative():
    A = csr_from_dense(np.array([[1, 2, 3], [1, 2, 3]], dtype=np.uint64), M7)
    # the dense route returns the whole exact kernel even when none is expected
    kb = left_kernel(A, count=0, seed=0)
    assert kb.dimension_found == 1 and kb.seed_trail == ()
    assert kb.vectors[0].tolist() == [6, 1]
    full_rank = csr_from_dense(np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint64), M7)
    assert left_kernel(full_rank, count=0, seed=0).vectors == []
    with pytest.raises(PreconditionError):
        left_kernel(A, count=-1, seed=0)


def test_left_kernel_duplicate_row():
    mat = np.array([[1, 2, 3], [1, 2, 3]], dtype=np.uint64)
    kb = left_kernel(csr_from_dense(mat, M7), count=4, seed=0)
    assert kb.dimension_found == 1
    v = kb.vectors[0]
    # (1, -1) direction up to scaling
    assert (int(v[0]) + int(v[1])) % 7 == 0 and v[0] != 0


def test_left_kernel_full_row_rank_empty():
    mat = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint64)
    kb = left_kernel(csr_from_dense(mat, M7), count=4, seed=0)
    assert kb.dimension_found == 0


def hand_csr(row_cols, n_cols=4, vals=None):
    """An unvalidated CSR matrix over F_7 with the given row columns."""
    lens = [len(c) for c in row_cols]
    row_ptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    col_ind = np.array([c for cols in row_cols for c in cols], dtype=np.int64)
    val = np.ones(len(col_ind), dtype=np.uint64) if vals is None else np.array(vals, dtype=np.uint64)
    return CsrMatrix(len(row_cols), n_cols, row_ptr, col_ind, val, M7)


def test_csr_validate_accepts_empty_rows():
    hand_csr([[0, 3], [], [1, 2], []]).validate()  # zero rows are legal matrix rows
    hand_csr([[], []]).validate()


@pytest.mark.parametrize(
    "row_cols, vals, message",
    [
        ([[0, 2], [3, 1]], None, "row 1 columns not strictly ascending"),
        ([[0], [], [2, 2]], None, "row 2 columns not strictly ascending"),
        ([[0, 2], [1, 4]], None, "column out of range in row 1"),
        ([[0], [-1, 3]], None, "column out of range in row 1"),
        # several bad rows: the first one is named, by its own defect
        ([[0], [], [3, 1], [0, 7]], None, "row 2 columns not strictly ascending"),
        ([[0], [0, 7], [3, 1]], None, "column out of range in row 1"),
        ([[0, 2], [1, 3]], [1, 0, 1, 1], r"CSR values outside \[1, p\)"),
        ([[0, 2], [1, 3]], [1, 7, 1, 1], r"CSR values outside \[1, p\)"),
    ],
)
def test_csr_validate_rejects_one_broken_invariant(row_cols, vals, message):
    A = hand_csr(row_cols, vals=vals)
    with pytest.raises(PropertyViolationError, match=message):
        A.validate()


def test_csr_validate_rejects_bad_pointers():
    A = hand_csr([[0, 2], [1, 3]])
    A.row_ptr[-1] = 3
    with pytest.raises(PropertyViolationError, match="CSR pointers inconsistent"):
        A.validate()
    B = hand_csr([[0, 2], [1], [3]])
    B.row_ptr[1:3] = [3, 2]
    with pytest.raises(PropertyViolationError, match="CSR row_ptr not monotone"):
        B.validate()
