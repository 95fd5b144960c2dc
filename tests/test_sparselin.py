"""Sparse kernels against the dense oracle: SpMM, PSGE, BM, Wiedemann."""

import numpy as np
import pytest

from fpgb import fp, groebner, sparselin
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
from fpgb.sigma_basis import block_generator
from fpgb.sparselin import (
    BLOCK_BYTES,
    CsrMatrix,
    berlekamp_massey,
    csr_from_arrays,
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
    # the plan's arrays are trusted only over the plan's own field
    with pytest.raises(PreconditionError, match="plan is over F_7, not F_101"):
        csr_from_plan(plan, M101)


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
        csr_transpose(A).validate()  # built unchecked: a valid matrix's transpose is valid
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


def loop_right_nullspace(mat, m):
    """The loop over free columns and pivots that dense_right_nullspace replaced, kept as its oracle."""
    rank, rref, pivots = dense_gauss(mat, m)
    n = mat.shape[1]
    basis = []
    for j in sorted(set(range(n)) - set(pivots)):
        v = np.zeros(n, dtype=np.uint64)
        v[j] = 1
        for i, pc in enumerate(pivots):
            coef = int(rref[i, j])
            if coef:
                v[pc] = m.p - coef
        basis.append(v)
    return basis


@pytest.mark.parametrize("m", [M7, FieldModulus(65537), MBIG])
def test_dense_right_nullspace_matches_the_loop(m):
    rng = np.random.default_rng(m.p % 1000)
    zero_cols = random_sparse(rng, 6, 9, 0.6, m)
    zero_cols[:, [0, 4, 8]] = 0
    full_rank = np.triu(random_sparse(rng, 7, 7, 0.5, m), 1) + np.eye(7, dtype=np.uint64)
    mats = [np.zeros((5, 7), dtype=np.uint64), full_rank, zero_cols]
    for r, k, c in ((8, 3, 10), (10, 4, 6), (5, 5, 12), (12, 2, 12)):
        # a product through k inner columns has rank at most k
        left, right = (rng.integers(0, m.p, shape, dtype=np.uint64).astype(object) for shape in ((r, k), (k, c)))
        mats.append(((left @ right) % m.p).astype(np.uint64))
    for mat in mats:
        basis = sparselin.dense_right_nullspace(mat, m)
        want = loop_right_nullspace(mat, m)
        assert len(basis) == len(want) == mat.shape[1] - dense_rank(mat, m)
        for v, w in zip(basis, want):
            assert v.dtype == w.dtype and np.array_equal(v, w)
            assert not ((mat.astype(object) @ v.astype(object)) % m.p).any()
    assert len(sparselin.dense_right_nullspace(full_rank, m)) == 0
    assert len(sparselin.dense_right_nullspace(mats[0], m)) == 7


def sweep_chunk(monkeypatch, rows):
    """Make psge_reduce sweep ``rows`` rows per dense block, whatever the width."""
    monkeypatch.setattr(sparselin, "_chunk_rows", lambda n_cols: rows)


def test_psge_worked_example(monkeypatch):
    _, A = example_plan_matrix()
    sweep_chunk(monkeypatch, 2)
    res = psge_reduce(A)
    assert res.rank == 2
    assert res.pivot_cols == [0, 1]
    assert res.zero_row_count == 0
    # the new row is the monic S-polynomial: y^2 + 6x -> cols [1, 2] vals [1, 6]
    assert len(res.nonpivot_rows) == 1
    ((lead, cols, vals),) = res.nonpivot_rows
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
    for lead, cols, vals in [*res.pivot_rows, *res.nonpivot_rows]:
        v = np.zeros(n_cols, dtype=np.uint64)
        v[cols] = vals
        rows.append((lead, v))
    rows.sort(key=lambda t: t[0])
    if not rows:
        return np.zeros((0, n_cols), dtype=np.uint64)
    return np.array([v for _, v in rows], dtype=np.uint64)


@pytest.mark.parametrize("p", [7, 101, 2147483629])
@pytest.mark.parametrize("density", [0.01, 0.05, 0.2])
def test_psge_matches_dense_rref(monkeypatch, p, density):
    m = FieldModulus(p)
    rng = np.random.default_rng(p % 1000 + int(density * 100))
    for _ in range(6):
        r, c = (int(x) for x in rng.integers(5, 60, 2))
        mat = random_sparse(rng, r, c, density, m)
        A = csr_from_dense(mat, m)
        sweep_chunk(monkeypatch, int(rng.integers(1, 17)))
        rank, rref, _ = dense_gauss(mat, m)
        for route in routes_at(p):
            with monkeypatch.context() as mp:
                sweep_route(mp, route)
                res = psge_reduce(A)
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


def echelon_key(res):
    rows = lambda rs: [(c, cols.tolist(), vals.tolist()) for c, cols, vals in rs]
    return (res.pivot_cols, rows(res.pivot_rows), rows(res.nonpivot_rows),
            res.zero_row_count, res.rank, res.fill_generated)


def test_psge_chunk_size_does_not_change_result(monkeypatch):
    rng = np.random.default_rng(860)
    mat = random_sparse(rng, 30, 25, 0.15, M101)
    # 975 zero columns change no row; with 1000 columns a one-row chunk's
    # budget (8 kB) also holds the whole remainder block (at most 30 x 25)
    A = csr_from_dense(np.hstack([mat, np.zeros((30, 975), dtype=np.uint64)]), M101)
    # chunks exist only on the numpy routes; a batch this small would take the small one
    sweep_route(monkeypatch, "levels")
    for back_reduce in (False, True):
        keys = []
        for rows in (1, 2, 3, 30):
            monkeypatch.setattr(sparselin, "BLOCK_BYTES", 8 * 1000 * rows)
            assert sparselin._chunk_rows(A.n_cols) == rows
            keys.append(echelon_key(psge_reduce(A, back_reduce=back_reduce)))
        assert keys[0][2] and keys[0][5] > 0  # new pivot rows and fill to compare
        assert all(k == keys[0] for k in keys)


def test_psge_refuses_a_remainder_block_over_the_budget(monkeypatch):
    # [1 0 0] is the known pivot; the other rows sweep to a 3 x 2 block of 48 bytes
    mat = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1], [1, 0, 0]], dtype=np.uint64)
    A = csr_from_dense(mat, M101)
    for route in routes_at(101):
        with monkeypatch.context() as mp:
            sweep_route(mp, route)
            mp.setattr(sparselin, "BLOCK_BYTES", 48)
            assert psge_reduce(A).rank == 3
            mp.setattr(sparselin, "BLOCK_BYTES", 47)
            with pytest.raises(SizeCapError, match="remainder block 3 x 2 exceeds 47 bytes"):
                psge_reduce(A)
            mp.setattr(sparselin, "BLOCK_BYTES", 23)  # not even one 24-byte row
            with pytest.raises(SizeCapError, match="one row of 3 columns"):
                psge_reduce(A)


def test_psge_refuses_a_row_over_the_budget_whatever_the_entry_count():
    # three entries, far under SMALL_ENTRIES, on more columns than one block row holds
    n_cols = BLOCK_BYTES // 8 + 1
    A = sparselin.csr_from_arrays(2, n_cols, [0, 2, 3], [0, n_cols - 1, 0], [1, 2, 3], M101)
    assert A.nnz() <= sparselin.SMALL_ENTRIES
    with pytest.raises(SizeCapError, match=f"one row of {n_cols} columns"):
        psge_reduce(A)


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
@pytest.mark.parametrize("chunk_rows", [1, 3, 256])
def test_f4_mode_matches_back_reduced_engine(monkeypatch, p, density, chunk_rows):
    m = FieldModulus(p)
    rng = np.random.default_rng(p % 997 + int(density * 100) + chunk_rows)
    sweep_chunk(monkeypatch, chunk_rows)
    for _ in range(4):
        r, c = (int(x) for x in rng.integers(5, 60, 2))
        mat = random_sparse(rng, r, c, density, m)
        # repeat some rows so leading columns are shared, as F4 batches share them
        mat = np.vstack([mat, mat[rng.integers(0, r, r // 3)]])
        A = csr_from_dense(mat, m)
        rank, rref, pivots = dense_gauss(mat, m)
        lead_row = dict(zip(pivots, rref))
        for route in routes_at(p):
            with monkeypatch.context() as mp:
                sweep_route(mp, route)
                f4 = psge_reduce(A, back_reduce=False)
                full = psge_reduce(A, back_reduce=True)
            assert f4.rank == full.rank == rank
            assert f4.zero_row_count == full.zero_row_count
            assert f4.pivot_cols == full.pivot_cols
            assert f4.fill_generated == full.fill_generated
            assert same_rows(f4.nonpivot_rows, full.nonpivot_rows)
            # both modes build the new rows by the same steps, so hold them to
            # the oracle too: each is the dense RREF row with the same lead
            for c, cols, vals in f4.nonpivot_rows:
                assert np.array_equal(np.flatnonzero(lead_row[c]), cols)
                assert np.array_equal(lead_row[c][cols], vals)


def f4_shaped_batch(rng, n_cols, n_known, n_rest, p):
    """Monic-able known-pivot rows with tails, then rows that repeat their leads.

    A remainder row is a combination of known rows (it reduces to zero, as
    most of F4's do), a known row plus noise to its right, or a random row.
    """
    mat = np.zeros((n_known + n_rest, n_cols), dtype=np.uint64)
    leads = np.sort(rng.choice(n_cols, n_known, replace=False))
    for i, c in enumerate(leads):
        tail = rng.random(n_cols - c) < 0.4
        mat[i, c:][tail] = rng.integers(1, p, int(tail.sum()))
        mat[i, c] = rng.integers(1, p)
    for i in range(n_known, n_known + n_rest):
        kind = rng.integers(3)
        if kind == 0:
            picks = rng.choice(n_known, min(3, n_known), replace=False)
            for k in picks:
                mat[i] = (mat[i] + int(rng.integers(1, p)) * mat[k]) % np.uint64(p)
        elif kind == 1:
            k = int(rng.integers(n_known))
            mat[i] = mat[k]
            noise = rng.random(n_cols) < 0.2
            noise[: leads[k] + 1] = False
            mat[i][noise] = rng.integers(0, p, int(noise.sum()))
        else:
            live = rng.random(n_cols) < 0.3
            mat[i][live] = rng.integers(1, p, int(live.sum()))
    return mat


def sweep_route(monkeypatch, route):
    """Make psge_reduce take ``route`` and forbid the others.

    ``small``, ``levels`` (the level sweep's exact tier) and ``limbs`` (its
    limb tier, forced at any prime) are psge_reduce's own routes; ``levels``
    needs a prime at which the exact tier holds (``routes_at``).  ``columns``
    puts the column-loop oracle (``column_loop_sweep``) in place of ``_sweep``.
    """
    def forbidden(*args):
        raise AssertionError(f"psge_reduce left the {route} route")

    if route == "small":
        monkeypatch.setattr(sparselin, "SMALL_ENTRIES", 1 << 62)
        monkeypatch.setattr(sparselin, "_sweep_levels", forbidden)
        return
    monkeypatch.setattr(sparselin, "SMALL_ENTRIES", -1)
    monkeypatch.setattr(sparselin, "_psge_small", forbidden)
    if route == "columns":
        monkeypatch.setattr(sparselin, "_sweep", column_loop_sweep)
        monkeypatch.setattr(sparselin, "_sweep_levels", forbidden)
        return
    real = sparselin._sweep_levels

    def tier(B, schedule, p, limbs):
        if limbs != (route == "limbs"):
            forbidden()
        return real(B, schedule, p, limbs)

    monkeypatch.setattr(sparselin, "_sweep_levels", tier)
    if route == "limbs":
        monkeypatch.setattr(sparselin, "float_exact", lambda k, p: False)


def routes_at(p):
    """The routes psge_reduce can be made to take at p, the column-loop oracle last.

    The level sweep's exact tier only where float64 is exact.
    """
    return ("small", "levels", "limbs", "columns") if sparselin.float_exact(1, p) else ("small", "limbs", "columns")


def _sweep_columns(B, rows: list, p: int):
    """Zero every pivot column of the uint64 block B in place, one column at a time.

    ``rows`` are the pivot rows (lead, cols, values) ascending by lead, so
    an update never touches a column already visited: each pivot row is
    monic and leads at its column.  Only columns that hold a nonzero or
    that some update reached are inspected.
    """
    p = np.uint64(p)
    queued = B.any(axis=0)
    for c, pc, pv in rows:
        if not queued[c]:
            continue
        col = B[:, c]
        nz = col.nonzero()[0]
        if len(nz) == 0:
            continue
        coef = p - col[nz]
        # a residue plus one product of residues stays below 2^63
        if len(nz) == 1:
            r = int(nz[0])
            B[r, pc] = (B[r, pc] + pv * coef[0]) % p
        else:
            ix = (nz[:, None], pc)
            B[ix] = (B[ix] + coef[:, None] * pv) % p
        queued[pc] = True


def column_loop_sweep(piv, ptr, ind, val, rows, n_cols, p, aside=False):
    """``sparselin._sweep`` on uint64 blocks by ``_sweep_columns``, pivots in ascending lead order.

    The column loop that swept psge's batches wherever float64 was not
    exact, kept as the level sweep's oracle: the same chunks, the same
    lead-aside rule and the same return value.
    """
    pivots = sorted(piv, key=lambda row: row[0])
    chunk = sparselin._chunk_rows(n_cols)
    fill, out = 0, []
    for k in range(0, len(rows), chunk):
        part = rows[k : k + chunk]
        at, lens = sparselin._entry_positions(ptr, part)
        local, cols = np.repeat(np.arange(len(part)), lens), ind[at]
        B = np.zeros((len(part), n_cols), dtype=np.uint64)
        B[local, cols] = val[at]
        if aside:
            lead = (np.arange(len(part)), ind[ptr[part]])
            one, B[lead] = B[lead], 0
        _sweep_columns(B, pivots, p)
        if aside:
            B[lead] = one
        out.append(sparselin._block_entries(B, k))
        fill += len(out[-1][0]) - int(np.count_nonzero(B[local, cols]))
    r, c, v = (np.concatenate(x) for x in zip(*out))
    return r, c, v, fill


def test_level_sweep_matches_column_loop(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        p=st.sampled_from([3, 7, 101, 65537, 6710887, 2147483629]),
        backend=st.sampled_from(list(Backend)),
        back_reduce=st.booleans(),
        chunk_rows=st.sampled_from([1, 3, 256]),
        limb_pivots=st.sampled_from([1, 2, sparselin._LIMB_PIVOTS]),
        n_cols=st.integers(1, 40),
        data=st.data(),
    )
    def check(p, backend, back_reduce, chunk_rows, limb_pivots, n_cols, data):
        n_known = data.draw(st.integers(1, n_cols))
        n_rest = data.draw(st.integers(0, 30))
        mat = f4_shaped_batch(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n_cols, n_known, n_rest, p)
        A = csr_from_dense(mat, FieldModulus(p, backend))
        keys = []
        for route in routes_at(p):
            with monkeypatch.context() as mp:
                sweep_chunk(mp, chunk_rows)
                sweep_route(mp, route)
                mp.setattr(sparselin, "_LIMB_PIVOTS", limb_pivots)
                keys.append(echelon_key(psge_reduce(A, back_reduce=back_reduce)))
        assert all(k == keys[-1] for k in keys[:-1])

    check()


def monic_pivots(mat, p):
    """The rows of ``mat``, each nonzero with its own lead, made monic as ``_Pivots``."""
    rows = []
    for row in mat.tolist():
        nz = [c for c, v in enumerate(row) if v]
        inv = pow(row[nz[0]], p - 2, p)
        rows.append((nz[0], [(c, row[c] * inv % p) for c in nz[1:]]))
    return sparselin._pack(sorted(rows))


def assert_sweeps_match_column_loop(monkeypatch, mat, n_known, p, budgets, limb_pivots=sparselin._LIMB_PIVOTS):
    """``_sweep`` on each of psge's routes, at each ``BLOCK_BYTES`` budget, against the column loop.

    The first ``n_known`` rows of ``mat`` are the pivots; the exact tier
    runs only where it holds for them.  Step 1 sweeps the other rows; step 3
    sweeps the pivots themselves, each with its lead set aside.
    """
    n_cols = mat.shape[1]
    piv = monic_pivots(mat[:n_known], p)
    rest = csr_from_dense(mat[n_known:], FieldModulus(p))
    routes = [r for r in routes_at(p)[1:] if r != "levels" or sparselin.float_exact(n_known, p)]
    for ptr, ind, val, rows, aside in (
        (rest.row_ptr, rest.col_ind, rest.val, np.arange(rest.n_rows), False),
        (piv.ptr, piv.ind, piv.val, np.arange(n_known), True),
    ):
        got = []
        for route in routes:
            for budget in budgets:
                with monkeypatch.context() as mp:
                    sweep_route(mp, route)
                    mp.setattr(sparselin, "BLOCK_BYTES", budget)
                    mp.setattr(sparselin, "_LIMB_PIVOTS", limb_pivots)
                    got.append(sparselin._sweep(piv, ptr, ind, val, rows, n_cols, p, aside=aside))
        want = got[-1]
        for r, c, v, fill in got[:-1]:
            assert np.array_equal(r, want[0]) and np.array_equal(c, want[1])
            assert np.array_equal(v, want[2]) and fill == want[3]


def test_level_sweep_matches_column_loop_over_several_blocks(monkeypatch):
    # _sweep on its own, with the real chunk rule: BLOCK_BYTES holds a few
    # rows, so each job spans several dense blocks and each wide level
    # several parts, down to parts of one pivot in the limb tier
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        p=st.sampled_from([7, 101, 65537, 6710887, 2147483629]),
        block_rows=st.integers(1, 4),
        limb_pivots=st.sampled_from([1, 2, sparselin._LIMB_PIVOTS]),
        n_cols=st.integers(1, 30),
        data=st.data(),
    )
    def check(p, block_rows, limb_pivots, n_cols, data):
        n_known = data.draw(st.integers(1, n_cols))
        n_rest = data.draw(st.integers(1, 20))
        mat = f4_shaped_batch(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n_cols, n_known, n_rest, p)
        assert_sweeps_match_column_loop(monkeypatch, mat, n_known, p, (8 * n_cols * block_rows, BLOCK_BYTES), limb_pivots)

    check()


@pytest.mark.parametrize("p", [6710887, 2147483629])
def test_limb_parts_at_the_cap_match_the_column_loop(monkeypatch, p):
    # 300 pivots that touch no other pivot's lead are one level, which the
    # limb tier sweeps in parts of 127, 127 and 46 pivots
    rng = np.random.default_rng(p % 1000)
    n_known, n_cols = 300, 340
    mat = np.zeros((n_known + 40, n_cols), dtype=np.uint64)
    mat[np.arange(n_known), np.arange(n_known)] = rng.integers(1, p, n_known)
    tails = rng.random((n_known, n_cols - n_known)) < 0.3
    mat[:n_known, n_known:][tails] = rng.integers(1, p, int(tails.sum()))
    live = rng.random((40, n_cols)) < 0.5
    mat[n_known:][live] = rng.integers(1, p, int(live.sum()))
    piv = monic_pivots(mat[:n_known], p)
    parts = sparselin._schedule(piv, sparselin._levels(piv, n_cols), n_cols, sparselin._LIMB_PIVOTS, p, True)
    assert [len(part.leads) for part in parts] == [127, 127, 46]
    assert_sweeps_match_column_loop(monkeypatch, mat, n_known, p, (8 * n_cols * 7, BLOCK_BYTES))


@pytest.mark.parametrize("p", [2147483629, 2147483647])
@pytest.mark.parametrize("kind", ["opposite", "same", "minus_one"])
def test_limb_tier_at_its_bound(p, kind):
    # one part of _LIMB_PIVOTS pivots whose residues all sit within 2^16 of
    # +-(p-1)/2 and of -1, so X1 reaches +-2^14, against integer arithmetic.
    # Every pivot entry is one v: near -(p-1)/2 or near +(p-1)/2 with
    # 2^16 v mod p near +(p-1)/2 ("opposite", "same"), or p - 1.  X = 2^30 -
    # 2^15 splits as -2^15 + 2^16 * 2^14 and X = 2^30 - 2^15 - 1 as
    # (2^15 - 1) + 2^16 (2^14 - 1), so in one of the rows each pivot adds
    # nearly 3 * 2^44 to the limb product, all of one sign
    h, half = sparselin._LIMB_PIVOTS, (p - 1) // 2
    bal = lambda v: v - p if v > half else v
    near = {"opposite": range(half + 1, p), "same": range(half, 0, -1), "minus_one": [p - 1]}[kind]
    v = next(v for v in near if kind == "minus_one" or bal(v * 65536 % p) > half - 65536)
    xs = ((1 << 30) - (1 << 15), (1 << 30) - (1 << 15) - 1, half)
    split = lambda x: (x - 65536 * round(x / 65536), round(x / 65536))
    assert [split(x) for x in xs[:2]] == [(-(1 << 15), 1 << 14), ((1 << 15) - 1, (1 << 14) - 1)]
    if kind != "minus_one":
        worst = max(abs(bal(v) * x0 + bal(v * 65536 % p) * x1) for x0, x1 in map(split, xs))
        assert h * worst > 380 << 44
    leads = [*xs, *(p - x for x in xs)]
    n_cols = h + 6
    mat = np.zeros((h + len(leads), n_cols), dtype=np.uint64)
    mat[np.arange(h), np.arange(h)] = 1
    mat[:h, h:] = v
    for i, x in enumerate(leads):
        mat[h + i, :h] = x
        mat[h + i, h:] = half if i % 2 else p - half
    piv = monic_pivots(mat[:h], p)
    rest = csr_from_dense(mat[h:], FieldModulus(p))
    parts = sparselin._schedule(piv, sparselin._levels(piv, n_cols), n_cols, h, p, True)
    assert [len(part.leads) for part in parts] == [h]
    r, c, val, _ = sparselin._sweep(piv, rest.row_ptr, rest.col_ind, rest.val, np.arange(len(leads)), n_cols, p)
    got = np.zeros((len(leads), n_cols), dtype=object)
    got[r, c] = val.tolist()
    # each row less its lead-column entries times the pivot rows
    want = mat[h:].astype(object)
    want = (want - want[:, :h] @ mat[:h].astype(object)) % p
    assert not want[:, :h].any()
    assert (got == want).all()


def test_block_entries_match_argwhere_in_any_layout():
    rng = np.random.default_rng(5507)
    for shape in ((0, 0), (0, 4), (3, 0), (1, 1), (6, 9), (13, 5)):
        for dtype in (np.float64, np.uint64):
            mat = np.zeros(shape, dtype=dtype)
            live = rng.random(shape) < 0.4
            mat[live] = rng.integers(1, 101, int(live.sum()))
            blocks = [mat, np.asfortranarray(mat), mat[::2, 1:], np.asfortranarray(mat)[1::2, ::3]]
            for B in blocks:
                for first_row in (0, 7):
                    r, c, v = sparselin._block_entries(B, first_row)
                    want = np.argwhere(B)  # row-major: sorted by (row, column)
                    assert np.array_equal(r, want[:, 0] + first_row)
                    assert np.array_equal(c, want[:, 1])
                    assert v.dtype == np.uint64
                    assert v.tolist() == [int(x) for x in B[want[:, 0], want[:, 1]]]


def test_renumber_matches_unique_with_gaps():
    rng = np.random.default_rng(3301)
    for n, k in ((1, 0), (1, 5), (10, 3), (50, 200), (1000, 40)):
        x = rng.integers(0, n, k)
        got, at = sparselin._renumber(x, n)
        want, inv = np.unique(x, return_inverse=True)
        assert np.array_equal(got, want) and np.array_equal(at, inv)


@pytest.mark.parametrize("p", [101, 2147483629])
def test_psge_step_two_on_swept_rows_and_columns_left_empty(monkeypatch, p):
    # the known pivots lead at columns 0, 3 and 6; of the remainder rows,
    # the 1st, 3rd and 5th sweep to zero, and the others end on columns
    # 5, 8 and 11 only, so step 2's block skips both rows and columns
    m = FieldModulus(p)
    known = np.zeros((3, 12), dtype=np.uint64)
    known[0, [0, 1, 5]] = [2, 3, 4]
    known[1, [3, 4, 8]] = [5, 1, 1]
    known[2, [6, 7, 11]] = [1, 6, 2]
    rest = np.zeros((6, 12), dtype=np.uint64)
    rest[0] = known[0] * 3 % p
    rest[1] = known[0]
    rest[1, 5] = (rest[1, 5] + 1) % p
    rest[2] = (known[1] + known[2]) % p
    rest[3] = known[1]
    rest[3, [8, 11]] = [2, 9]
    rest[4] = known[2] * 5 % p
    rest[5] = known[2]
    rest[5, 11] = 1
    mat = np.vstack([known, rest])
    rank, rref, pivots = dense_gauss(mat, m)
    assert rank == 6 and pivots == [0, 3, 5, 6, 8, 11]
    A = csr_from_dense(mat, m)
    for route in routes_at(p):
        with monkeypatch.context() as mp:
            sweep_route(mp, route)
            res = psge_reduce(A)
        assert res.pivot_cols == pivots
        assert res.nonpivot_rows.leads.tolist() == [5, 8, 11]
        assert np.array_equal(assemble_rows(res, 12), rref[:rank])


@pytest.mark.parametrize("p", [7, 65537, 2147483629])
def test_small_route_sweeps_by_new_pivots_after_the_known_ones(monkeypatch, p):
    # known pivots K0 (lead 0) and K1 (lead 1); the remainder rows R1..R4
    # sweep by them to nonzero rows, and then by the new pivots found before
    # them: N1 (lead 2) from R1, N2 (lead 4) from R2, R3 = K0 + N1 + N2 to
    # zero, and R4 = K1 + N2 + e6 + e7 to N3 (lead 6).  N1's tail holds the
    # leads of N2 and N3, N2's tail that of N3.  The known-pivot sweep
    # creates column 6 in R1 and column 8 in R2 and R4: a fill of 3.  The
    # new pivots clear R4's column 8 again, and R3 vanishes only against them
    m = FieldModulus(p)
    rows = [
        {0: 1, 6: 1},
        {1: 1, 8: 1},
        {0: 1, 2: 1, 4: 1},
        {1: 1, 4: 1, 5: 1, 6: 1},
        {0: 1, 2: 1, 4: 2, 5: 1, 6: 1, 8: p - 1},
        {1: 1, 4: 1, 5: 1, 6: 2, 7: 1},
    ]
    mat = np.zeros((len(rows), 9), dtype=np.uint64)
    for i, row in enumerate(rows):
        mat[i, list(row)] = list(row.values())
    rank, rref, pivots = dense_gauss(mat, m)
    assert rank == 5 and pivots == [0, 1, 2, 4, 6]
    lead_row = dict(zip(pivots, rref))
    A = csr_from_dense(mat, m)
    for back_reduce in (False, True):
        keys = []
        for route in routes_at(p):
            with monkeypatch.context() as mp:
                sweep_route(mp, route)
                res = psge_reduce(A, back_reduce=back_reduce)
            assert res.fill_generated == 3
            assert res.nonpivot_rows.leads.tolist() == [2, 4, 6]
            for c, cols, vals in res.nonpivot_rows:
                assert np.array_equal(np.flatnonzero(lead_row[c]), cols)
                assert np.array_equal(lead_row[c][cols], vals)
            if back_reduce:
                assert np.array_equal(assemble_rows(res, 9), rref[:rank])
            keys.append(echelon_key(res))
        assert all(k == keys[-1] for k in keys[:-1])
    # the remainder block the cap counts: all four rows, on columns 2 and 4 to 8
    with monkeypatch.context() as mp:
        sweep_route(mp, "small")
        mp.setattr(sparselin, "BLOCK_BYTES", 8 * 4 * 6 - 1)
        with pytest.raises(SizeCapError, match="remainder block 4 x 6 exceeds"):
            psge_reduce(A)


@pytest.mark.parametrize("p", [65537, 2147483629])
def test_small_route_rule_switches_at_its_limit(monkeypatch, p):
    # a batch of exactly SMALL_ENTRIES entries takes the small route, one
    # more entry the level sweep, in its exact tier (65537) or its limb tier
    # (2147483629); each side runs with the other route patched to raise
    def forbidden(*args):
        raise AssertionError("psge_reduce took a route the rule does not choose")

    m = FieldModulus(p)
    rng = np.random.default_rng(p % 1000)
    limit = sparselin.SMALL_ENTRIES
    for nnz, small in ((limit, True), (limit + 1, False)):
        mat = np.zeros((40, 30), dtype=np.uint64)
        mat.flat[rng.choice(mat.size, nnz, replace=False)] = rng.integers(1, p, nnz)
        A = csr_from_dense(mat, m)
        assert A.nnz() == nnz
        rank, rref, _ = dense_gauss(mat, m)
        with monkeypatch.context() as mp:
            if small:
                mp.setattr(sparselin, "_sweep_levels", forbidden)
            else:
                mp.setattr(sparselin, "_psge_small", forbidden)
            res = psge_reduce(A)
        assert res.rank == rank
        assert np.array_equal(assemble_rows(res, 30), rref[:rank])


def test_small_route_matches_dense_gauss(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        p=st.sampled_from([3, 7, 65537, 2147483629]),
        back_reduce=st.booleans(),
        n_cols=st.integers(1, 14),
        data=st.data(),
    )
    def check(p, back_reduce, n_cols, data):
        # rows are empty, random, or an earlier row scaled with noise right
        # of its lead, which repeats that row's lead
        value = st.integers(0, p - 1)
        mat = []
        for _ in range(data.draw(st.integers(0, 12))):
            kind = data.draw(st.sampled_from(["empty", "random", "repeat"]))
            row = [0] * n_cols
            if kind == "random" or (kind == "repeat" and not any(map(any, mat))):
                row = data.draw(st.lists(st.sampled_from([0, 0, 1]).flatmap(
                    lambda z: st.just(0) if z == 0 else value), min_size=n_cols, max_size=n_cols))
            elif kind == "repeat":
                src = data.draw(st.sampled_from([r for r in mat if any(r)]))
                lead = next(j for j, x in enumerate(src) if x)
                c = data.draw(st.integers(1, p - 1))
                row = [x * c % p for x in src]
                for j in range(lead + 1, n_cols):
                    if data.draw(st.booleans()):
                        row[j] = data.draw(value)
            mat.append(row)
        mat = np.array(mat, dtype=np.uint64).reshape(len(mat), n_cols)
        m = FieldModulus(p)
        A = csr_from_dense(mat, m)
        with monkeypatch.context() as mp:
            sweep_route(mp, "small")
            res = psge_reduce(A, back_reduce=back_reduce)
        rank, rref, pivots = dense_gauss(mat, m)
        assert res.rank == rank and res.zero_row_count == len(mat) - rank
        assert res.pivot_cols == pivots
        lead_row = dict(zip(pivots, rref))
        for c, cols, vals in res.nonpivot_rows:
            assert np.array_equal(np.flatnonzero(lead_row[c]), cols)
            assert np.array_equal(lead_row[c][cols], vals)
        if back_reduce:
            assert np.array_equal(assemble_rows(res, n_cols), rref[:rank])
        else:
            # the known pivots: per input lead, the row with the fewest
            # entries (lowest index on ties), made monic
            sizes = [(np.flatnonzero(r)[0], np.count_nonzero(r), i) for i, r in enumerate(mat) if r.any()]
            chosen = {}
            for lead, size, i in sorted(sizes, reverse=True):
                chosen[lead] = i
            assert res.pivot_rows.leads.tolist() == sorted(chosen)
            for c, cols, vals in res.pivot_rows:
                row = mat[chosen[c]]
                monic = row * np.uint64(pow(int(row[c]), p - 2, p)) % np.uint64(p)
                assert np.array_equal(np.flatnonzero(row), cols)
                assert np.array_equal(monic[cols], vals)

    check()


@pytest.mark.parametrize("p", [65537, 2147483629])
@pytest.mark.parametrize("back_reduce", [False, True])
def test_both_row_sets_ascend_by_lead(monkeypatch, p, back_reduce):
    # F4 harvests the new rows in reverse and the interreduction searches
    # the pivot rows' leads, so each set must ascend.  These batches have
    # more than SMALL_ENTRIES entries: 65537 takes the level sweep's exact
    # tier, 2147483629 its limb tier; each is also run through the small route
    rng = np.random.default_rng(p % 1000 + back_reduce)
    for _ in range(4):
        mat = f4_shaped_batch(rng, 60, 25, 30, p)
        A = csr_from_dense(mat, FieldModulus(p))
        assert A.nnz() > sparselin.SMALL_ENTRIES
        for route in ("levels" if p == 65537 else "limbs", "small"):
            with monkeypatch.context() as mp:
                sweep_route(mp, route)
                res = psge_reduce(A, back_reduce=back_reduce)
            assert len(res.pivot_rows) >= 25 and len(res.nonpivot_rows) > 0
            for rows in (res.pivot_rows, res.nonpivot_rows):
                leads = [lead for lead, _, _ in rows]
                assert leads == rows.leads.tolist() == sorted(set(leads))
                assert all(cols[0] == lead and vals[0] == 1 for lead, cols, vals in rows)


@pytest.mark.parametrize("p", [3, 7, 101, 65537, 6710887, 2147483629])
def test_mod_exact_matches_integer_mod_up_to_2_53(p):
    # multiples of p and their neighbours up to 2^53 - p, the largest
    # magnitude float_exact lets a product or sweep reach: there the rounded
    # quotient's floor is one off either way, for small and large primes alike
    rng = np.random.default_rng(p)
    kmax = ((1 << 53) - p - 1) // p
    ks = np.concatenate([np.arange(0, 500), kmax - np.arange(500), rng.integers(0, kmax, 20000)])
    x = (ks[:, None] * p + np.array([-1, 0, 1])).ravel()
    x = np.concatenate([x, -x])
    got = fp.mod_exact(x.astype(np.float64), p)
    assert got.tolist() == [int(v) % p for v in x.tolist()]


def test_exactness_bound_flips_between_two_batch_sizes(monkeypatch):
    # the largest prime at which a 200-pivot sweep is exact in float64;
    # 201 pivots are not, so the same shape of batch takes the limb tier.
    # Each step picks its tier for its own pivot set: at 200 known pivots
    # step 1 takes the exact tier, and step 3, by the known pivots and the
    # new rows together, the limb tier
    p = 6710887
    assert sparselin.float_exact(200, p) and not sparselin.float_exact(201, p)
    m = FieldModulus(p)
    for n_known, step1 in ((200, "exact"), (201, "limbs")):
        # the known pivots are one dense chain: a lead of 1 and p-1 at every
        # column to its right, so each row depends on all the ones above it.
        # The remainder rows repeat lead 0 and hold p-1 almost everywhere:
        # the sweep multiplies p-1 by residues as large as they come.
        n_cols = n_known + 8
        known = np.triu(np.full((n_known, n_cols), p - 1, dtype=np.uint64))
        known[np.arange(n_known), np.arange(n_known)] = 1
        rest = np.full((10, n_cols), p - 1, dtype=np.uint64)
        rest[np.arange(10), 1 + 3 * np.arange(10)] = 0
        mat = np.vstack([known, rest])
        rank, rref, pivots = dense_gauss(mat, m)
        lead_row = dict(zip(pivots, rref))
        A = csr_from_dense(mat, m)
        with monkeypatch.context() as mp:
            taken = record_sweep_routes(mp)
            f4 = psge_reduce(A, back_reduce=False)
            assert taken == [("step 1", {step1})]
            taken.clear()
            full = psge_reduce(A, back_reduce=True)
            assert taken == [("step 1", {step1}), ("step 3", {"limbs"})]
        assert f4.rank == full.rank == rank
        assert f4.nonpivot_rows
        for c, cols, vals in f4.nonpivot_rows:
            assert np.array_equal(np.flatnonzero(lead_row[c]), cols)
            assert np.array_equal(lead_row[c][cols], vals)
        assert np.array_equal(assemble_rows(full, n_cols), rref[:rank])


def record_sweep_routes(monkeypatch):
    """A list that gets, per ``_sweep`` call, its step and the tiers of the level sweep it ran.

    Step 3 is the call that sets each row's lead aside.
    """
    taken = []
    real_sweep = sparselin._sweep

    def sweep(*args, aside=False):
        taken.append(("step 3" if aside else "step 1", set()))
        return real_sweep(*args, aside=aside)

    real_levels = sparselin._sweep_levels

    def levels(B, schedule, p, limbs):
        taken[-1][1].add("limbs" if limbs else "exact")
        return real_levels(B, schedule, p, limbs)

    monkeypatch.setattr(sparselin, "_sweep", sweep)
    monkeypatch.setattr(sparselin, "_sweep_levels", levels)
    return taken


def test_f4_mode_never_calls_dense_gauss(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense_gauss called on the F4 path")

    rng = np.random.default_rng(4242)
    mats = [random_sparse(rng, 40, 30, 0.1, M101) for _ in range(5)]
    want = [dense_rank(mat, M101) for mat in mats]
    cfg = PipelineConfig()
    ring, polys, _ = make_instance("katsura", n=3, p=101, seed=0)
    monkeypatch.setattr(sparselin, "dense_gauss", forbidden)
    for mat, rank in zip(mats, want):
        assert psge_reduce(csr_from_dense(mat, M101), back_reduce=False).rank == rank
    assert run_pipeline(ring, polys, cfg)[0].batches


@pytest.mark.parametrize("family, n", [("cyclic", 5), ("katsura", 5)])
def test_driver_digest_matches_back_reduced_engine(monkeypatch, family, n):
    cfg = PipelineConfig()
    ring, polys, desc = make_instance(family, n=n, p=65537, seed=0)
    f4_report, f4_text, _ = run_pipeline(ring, polys, cfg, desc)

    def full_rref(A, back_reduce=True):
        return psge_reduce(A, back_reduce=True)

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


def krylov_blocks(rng, n, b, L, p, zero_cols):
    """S_k = U^T B^k V for k < L, in Python ints, for a random n x n B with some zero columns."""
    B = rng.integers(0, p, (n, n)).astype(object)
    B[:, :zero_cols] = 0
    U = rng.integers(0, p, (n, b)).astype(object)
    W = rng.integers(0, p, (n, b)).astype(object)
    S = []
    for _ in range(L):
        S.append(U.T.dot(W) % p)
        W = B.dot(W) % p
    return np.array(S, dtype=np.uint64)


def test_block_generator_annihilates_and_is_berlekamp_massey_at_width_one():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        p=st.sampled_from([3, 7, 65537, 2**31 - 19]),
        b=st.sampled_from([1, 2, 4]),
        n=st.integers(1, 9),
        zero_cols=st.integers(0, 9),
        extra=st.integers(0, 5),
        krylov=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(p, b, n, zero_cols, extra, krylov, seed):
        m = FieldModulus(p)
        rng = np.random.default_rng(seed)
        L = 2 * -(-n // b) + extra
        if krylov:
            S = krylov_blocks(rng, n, b, L, p, min(zero_cols, n))
        else:
            S = rng.integers(0, p, (L, b, b), dtype=np.uint64)
        gens = block_generator(S, m)
        assert len(gens) == b
        assert [len(f) for f in gens] == sorted(len(f) for f in gens)
        for f in gens:
            d = len(f) - 1
            assert f.any()
            for k in range(L - d):  # every offset the generator's degree leaves
                acc = sum(S[k + i].astype(object).dot(f[i].astype(object)) for i in range(d + 1))
                assert not (acc % p).any()
        if b == 1 and krylov:
            # the linear complexity is at most n and L >= 2n
            assert gens[0][:, 0].tolist() == berlekamp_massey(S[:, 0, 0].tolist(), m)

    check()


def test_block_generator_rejects_a_sequence_that_is_not_square_blocks():
    for bad in (np.zeros((0, 2, 2)), np.zeros((3, 2, 1)), np.zeros((3, 2))):
        with pytest.raises(PreconditionError):
            block_generator(bad, M7)


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


def test_wiedemann_fills_a_kernel_above_twelve_rounds_of_four_probes():
    # one vector per probe per round capped the old solve at 12 x 4 = 48
    rng = np.random.default_rng(4848)
    mat = rank_deficient(rng, 64, 10, MBIG)
    A = csr_from_dense(mat, MBIG)
    nullity = 64 - dense_rank(mat, MBIG)
    assert nullity == 54
    kb = wiedemann_solve(A, seed=1, max_vectors=nullity, block_width=4)
    assert kb.dimension_found == len(kb.vectors) == nullity
    assert len(kb.seed_trail) <= -(-nullity // 4) + 12  # the default budget at b = 4
    assert all(not spmv(A, v).any() for v in kb.vectors)
    assert dense_rank(np.array(kb.vectors, dtype=np.uint64), MBIG) == nullity


def test_wiedemann_combines_normal_equation_vectors_outside_the_kernel():
    # a and b are isotropic and orthogonal over F_7, c is orthogonal to both:
    # A = [a b a c] has ker(A) = <e0 - e2>, but A^T A kills e0, e1 and e2
    a, b, c = [1, 2, 3, 0, 0], [0, 1, 4, 2, 0], [0, 0, 0, 0, 1]
    mat = np.array([a, b, a, c], dtype=np.uint64).T
    A = csr_from_dense(mat, M7)
    gram = (mat.T.astype(np.int64) @ mat.astype(np.int64)) % 7
    assert 4 - dense_rank(mat, M7) == 1 and 4 - dense_rank(gram, M7) == 3
    for seed in range(10):
        kb = wiedemann_solve(A, seed=seed, max_vectors=1)
        (v,) = kb.vectors
        assert not spmv(A, v).any() and v[0] and (int(v[0]) + int(v[2])) % 7 == 0


@pytest.mark.parametrize("shape", [(40, 40), (30, 40)])
def test_wiedemann_builds_each_spmm_chunk_layout_once(monkeypatch, shape):
    # at a 31-bit prime the float64 operator is not exact: the operator is spmm
    rng = np.random.default_rng(shape[0])
    A = csr_from_dense(random_sparse(rng, *shape, 0.1, MBIG), MBIG)
    nullity = A.n_cols - dense_rank(A.to_dense(), MBIG)
    want = wiedemann_solve(A, seed=2, max_vectors=nullity)
    A = csr_from_dense(A.to_dense(), MBIG)  # a fresh matrix, no layout built yet
    scans = []
    real_scan = sparselin.exclusive_scan
    monkeypatch.setattr(sparselin, "exclusive_scan", lambda lens: scans.append(len(lens)) or real_scan(lens))
    kb = wiedemann_solve(A, seed=2, max_vectors=nullity)
    assert kb.dimension_found == want.dimension_found > 0 and kb.seed_trail == want.seed_trail
    assert all(np.array_equal(v, w) for v, w in zip(kb.vectors, want.vectors))
    # one layout per operator (A, and A^T when A is not square) and the
    # transpose's own row pointers, however many Krylov steps ran
    assert len(scans) == (1 if shape[0] == shape[1] else 3)


def solve_outcome(A, seed, target):
    """What wiedemann_solve returns or raises, as bytes to compare."""
    try:
        kb = wiedemann_solve(A, seed=seed, max_vectors=target)
    except ProbabilisticFailureError as exc:
        return ("short", str(exc), exc.seed_trail)
    return ("ok", [v.tobytes() for v in kb.vectors], kb.seed_trail, kb.spmm_calls)


@pytest.mark.parametrize("m", [M7, M101, FieldModulus(65537)], ids=lambda m: str(m.p))
@pytest.mark.parametrize("shape", [(40, 40), (24, 40), (50, 40)])
def test_wiedemann_dense_and_spmm_operators_agree(monkeypatch, m, shape):
    rng = np.random.default_rng(shape[0] + m.p)
    mat = random_sparse(rng, *shape, 0.15, m)
    mat[rng.integers(0, shape[0], 4)] = 0  # a few empty rows
    mat[:, rng.integers(0, shape[1], 6)] = mat[:, rng.integers(0, shape[1], 6)]  # repeated columns
    A = csr_from_dense(mat, m)
    nullity = A.n_cols - dense_rank(mat, m)
    assert nullity > 0
    widths = []
    real_spmm = sparselin.spmm
    monkeypatch.setattr(sparselin, "spmm", lambda M, X: widths.append(np.shape(X)[1:]) or real_spmm(M, X))
    for seed in (0, 1):
        widths.clear()
        dense = solve_outcome(A, seed, nullity)
        assert set(widths) <= {(), (1,)}  # the SpMV checks alone
        # no dense copy fits, so the same solve applies its operator by spmm
        monkeypatch.setattr(sparselin, "BLOCK_BYTES", 0)
        by_spmm = solve_outcome(A, seed, nullity)
        monkeypatch.setattr(sparselin, "BLOCK_BYTES", BLOCK_BYTES)
        assert (sparselin._block_width(nullity),) in widths
        assert dense == by_spmm


@pytest.mark.parametrize("shape", [(40, 40), (30, 40)])
def test_wiedemann_takes_spmm_at_a_31_bit_prime(monkeypatch, shape):
    rng = np.random.default_rng(29)
    mat = random_sparse(rng, *shape, 0.15, MBIG)
    mat[:, :3] = 0  # a kernel in the square case too
    A = csr_from_dense(mat, MBIG)
    nullity = A.n_cols - dense_rank(mat, MBIG)
    widths = []
    real_spmm = sparselin.spmm
    monkeypatch.setattr(sparselin, "spmm", lambda M, X: widths.append(np.shape(X)[1:]) or real_spmm(M, X))
    monkeypatch.setattr(fp, "mod_exact", lambda *a: pytest.fail("float64 product at a 31-bit prime"))
    kb = wiedemann_solve(A, seed=3, max_vectors=nullity)
    assert kb.dimension_found == nullity > 0
    assert (sparselin._block_width(nullity),) in widths


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


def test_wiedemann_rejects_a_target_above_the_dimension(monkeypatch):
    empty = CsrMatrix(3, 0, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64),
                      np.zeros(0, dtype=np.uint64), M7)
    full_rank = csr_from_dense(np.array([[1, 2], [0, 1]], dtype=np.uint64), M101)
    calls = []
    monkeypatch.setattr(sparselin, "spmm", lambda *a: calls.append(1))
    for A in (empty, full_rank):
        with pytest.raises(PreconditionError, match=f"0..{A.n_cols}, got 3"):
            wiedemann_solve(A, seed=0, max_vectors=3)
    assert calls == []  # refused before any Krylov round


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
    # target 4 gives b = 4: the default budget is ceil(4 / 4) + 12 rounds, every one on the trail
    assert len(exc.value.seed_trail) == 13


@pytest.mark.parametrize("target, width", [(0, 4), (1, 4), (4, 4), (11, 11), (54, 16)])
def test_wiedemann_derives_its_block_width_and_budget_from_the_target(monkeypatch, target, width):
    assert sparselin._block_width(target) == width
    if not target:
        return
    # full rank: no target above 0 is reached, so every round of the budget runs
    A = csr_from_dense(rank_deficient(np.random.default_rng(60), 60, 60, MBIG), MBIG)
    widths = []
    real_spmm = sparselin.spmm
    monkeypatch.setattr(sparselin, "spmm", lambda M, X: widths.append(X.shape[1]) or real_spmm(M, X))
    with pytest.raises(ProbabilisticFailureError) as exc:
        wiedemann_solve(A, seed=0, max_vectors=target)
    assert len(exc.value.seed_trail) == -(-target // width) + 12
    assert set(widths) == {width}


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
    # the dense left kernel refuses it; Wiedemann on the transpose solves it
    with pytest.raises(SizeCapError, match=f"capped at {sparselin.DENSE_CAP}, got a 30x600 matrix"):
        left_kernel(A, count=nullity, seed=3)
    At = csr_transpose(A)
    kb = wiedemann_solve(At, seed=3, max_vectors=nullity)
    assert kb.dimension_found == len(kb.vectors) == nullity
    assert kb.seed_trail
    dense = mat.astype(object)
    for v in kb.vectors:
        assert not any(x % MBIG.p for x in v.astype(object) @ dense)
    with pytest.raises(ProbabilisticFailureError):
        wiedemann_solve(At, seed=3, max_vectors=nullity + 1)


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


CSR_DEFECTS = [
    ([[0, 2], [3, 1]], None, "row 1 columns not strictly ascending"),
    ([[0], [], [2, 2]], None, "row 2 columns not strictly ascending"),
    ([[0, 2], [1, 4]], None, "column out of range in row 1"),
    ([[0], [-1, 3]], None, "column out of range in row 1"),
    # several bad rows: the first one is named, by its own defect
    ([[0], [], [3, 1], [0, 7]], None, "row 2 columns not strictly ascending"),
    ([[0], [0, 7], [3, 1]], None, "column out of range in row 1"),
    ([[0, 2], [1, 3]], [1, 0, 1, 1], r"CSR values outside \[1, p\)"),
    ([[0, 2], [1, 3]], [1, 7, 1, 1], r"CSR values outside \[1, p\)"),
]


@pytest.mark.parametrize("row_cols, vals, message", CSR_DEFECTS)
def test_csr_validate_rejects_one_broken_invariant(row_cols, vals, message):
    A = hand_csr(row_cols, vals=vals)
    with pytest.raises(PropertyViolationError, match=message):
        A.validate()


@pytest.mark.parametrize("row_cols, vals, message", CSR_DEFECTS)
def test_csr_from_arrays_rejects_one_broken_invariant(row_cols, vals, message):
    # arrays that come from no plan are checked when the matrix is built
    A = hand_csr(row_cols, vals=vals)
    with pytest.raises(PropertyViolationError, match=message):
        csr_from_arrays(A.n_rows, A.n_cols, A.row_ptr, A.col_ind, A.val, M7)


def test_csr_validate_rejects_bad_pointers():
    A = hand_csr([[0, 2], [1, 3]])
    A.row_ptr[-1] = 3
    with pytest.raises(PropertyViolationError, match="CSR pointers inconsistent"):
        A.validate()
    B = hand_csr([[0, 2], [1], [3]])
    B.row_ptr[1:3] = [3, 2]
    with pytest.raises(PropertyViolationError, match="CSR row_ptr not monotone"):
        B.validate()
