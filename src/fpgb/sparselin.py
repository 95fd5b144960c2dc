"""Sparse exact linear algebra over F_p on compiled batch matrices.

CSR matrices materialize directly from layout plans.  Three engines work on
them:

- ``psge_reduce``: known-pivot elimination in the style of Faugere-Lachartre.
  One sparsest row per distinct input leading column is a known pivot; the
  other rows, ``panel_width`` at a time in a dense block, have the pivot
  columns swept out in ascending order, and the small remainder is brought
  to echelon form by its own code.  Its new rows are reduced row echelon
  form (RREF) rows; ``back_reduce=True`` also back-substitutes the known
  pivots, so the output is the whole RREF;
- ``dense_gauss``: the brute-force oracle (size-capped) used to cross-check
  ranks, row spaces, and null spaces;
- ``wiedemann_solve``: black-box right-kernel extraction from Krylov
  sequences via Berlekamp-Massey, applying the operator to small blocks of
  vectors at a time; a rectangular A is framed through A^T A and every
  candidate is verified against A itself.  ``left_kernel`` runs it on the
  transpose.  Every caller passes the nullity it knows from elimination
  as the target: the solve stops once it is reached and fails loudly when
  the round budget ends short of it.

All randomness is seeded and every probabilistic result carries its seed
trail for replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bulk import exclusive_scan, radix_sort, segment_defects
from .errors import (
    PreconditionError,
    ProbabilisticFailureError,
    PropertyViolationError,
    SizeCapError,
)
from .fp import FieldModulus, KernelArith
from .symbolic import LayoutPlan

DENSE_CAP = 512


@dataclass
class CsrMatrix:
    n_rows: int
    n_cols: int
    row_ptr: np.ndarray  # (n_rows+1,) int64
    col_ind: np.ndarray  # (nnz,) int64, ascending within each row
    val: np.ndarray  # (nnz,) uint64, nonzero residues
    modulus: FieldModulus
    _chunks: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _transpose: CsrMatrix | None = field(default=None, init=False, repr=False, compare=False)

    def nnz(self) -> int:
        return int(self.row_ptr[-1])

    def validate(self):
        if self.row_ptr[0] != 0 or not (self.row_ptr[-1] == len(self.col_ind) == len(self.val)):
            raise PropertyViolationError("CSR pointers inconsistent")
        if (np.diff(self.row_ptr) < 0).any():
            raise PropertyViolationError("CSR row_ptr not monotone")
        p = self.modulus.p
        if len(self.val) and (self.val.min() < 1 or self.val.max() >= p):
            raise PropertyViolationError("CSR values outside [1, p)")
        _, unordered, outside = segment_defects(self.row_ptr, self.col_ind, self.n_cols)
        bad = unordered | outside
        if bad.any():
            i = int(np.argmax(bad))
            if outside[i]:
                raise PropertyViolationError(f"column out of range in row {i}")
            raise PropertyViolationError(f"row {i} columns not strictly ascending")

    def spmm_chunks(self):
        """spmm's split of the value stream into lazy-window chunks.

        Returns (nchunks, chunk_base, starts): chunks per row, their
        exclusive prefix, and the first entry of every chunk.  It depends
        only on the matrix, so it is built on first use and kept; a
        CsrMatrix is not changed once it is made.
        """
        if self._chunks is None:
            k = KernelArith(self.modulus).lazy_window()
            nchunks = -(-np.diff(self.row_ptr) // k)
            chunk_base = exclusive_scan(nchunks)
            row_of_chunk = np.repeat(np.arange(self.n_rows), nchunks)
            within = np.arange(int(chunk_base[-1]), dtype=np.int64) - np.repeat(chunk_base[:-1], nchunks)
            self._chunks = (nchunks, chunk_base, self.row_ptr[row_of_chunk] + k * within)
        return self._chunks

    def row(self, i: int):
        s, e = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
        return self.col_ind[s:e], self.val[s:e]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.uint64)
        for i in range(self.n_rows):
            cols, vals = self.row(i)
            out[i, cols] = vals
        return out


def csr_from_arrays(n_rows, n_cols, row_ptr, col_ind, val, m: FieldModulus) -> CsrMatrix:
    A = CsrMatrix(
        int(n_rows),
        int(n_cols),
        np.asarray(row_ptr, dtype=np.int64),
        np.asarray(col_ind, dtype=np.int64),
        np.asarray(val, dtype=np.uint64),
        m,
    )
    A.validate()
    return A


def csr_from_dense(mat: np.ndarray, m: FieldModulus) -> CsrMatrix:
    mat = np.asarray(mat, dtype=np.uint64) % np.uint64(m.p)
    rows, cols = np.nonzero(mat)
    row_ptr = exclusive_scan(np.bincount(rows, minlength=mat.shape[0]))
    return csr_from_arrays(mat.shape[0], mat.shape[1], row_ptr, cols, mat[rows, cols], m)


def csr_from_plan(plan: LayoutPlan, m: FieldModulus) -> CsrMatrix:
    """Reinterpret a layout plan as its batch matrix (no copies of substance).

    The plan was validated when ``compile_batch`` built it; the matrix
    checks of ``csr_from_arrays`` still run.
    """
    return csr_from_arrays(
        plan.n_rows, plan.n_cols, plan.row_ptr, plan.col_ind, plan.val, m
    )


def csr_transpose(A: CsrMatrix) -> CsrMatrix:
    """Transpose by stable counting sort on column indices.

    Built on first use and kept on both matrices, each linked to the other,
    so ``csr_transpose(csr_transpose(A))`` is ``A`` itself; a CsrMatrix is
    not changed once it is made.
    """
    if A._transpose is None:
        if A.nnz() == 0:
            T = csr_from_arrays(
                A.n_cols, A.n_rows, np.zeros(A.n_cols + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64), A.modulus,
            )
        else:
            _, perm = radix_sort(A.col_ind.astype(np.uint64).reshape(-1, 1))
            row_of = np.repeat(np.arange(A.n_rows, dtype=np.int64), np.diff(A.row_ptr))
            t_row_ptr = exclusive_scan(np.bincount(A.col_ind, minlength=A.n_cols))
            T = csr_from_arrays(
                A.n_cols, A.n_rows, t_row_ptr, row_of[perm], A.val[perm], A.modulus
            )
        A._transpose, T._transpose = T, A
    return A._transpose


# ---------------------------------------------------------------------------
# SpMV / SpMM with windowed lazy accumulation
# ---------------------------------------------------------------------------


def spmm(A: CsrMatrix, X: np.ndarray) -> np.ndarray:
    """Exact A @ X over F_p for a dense block X of shape (n_cols, b).

    Products accumulate unreduced inside the backend's lazy window; one
    reduction runs per window chunk and one per row.
    """
    X = np.asarray(X, dtype=np.uint64)
    if X.ndim == 1:
        return spmm(A, X[:, None])[:, 0]
    if X.shape[0] != A.n_cols:
        raise PreconditionError(f"dimension mismatch: {A.n_cols} vs {X.shape[0]}")
    b = X.shape[1]
    out = np.zeros((A.n_rows, b), dtype=np.uint64)
    if A.nnz() == 0 or b == 0:
        return out
    ar = KernelArith(A.modulus)
    vals_d = ar.enter(A.val)
    x_d = ar.enter(X)
    prods = ar.mul_lazy(vals_d[:, None], x_d[A.col_ind])
    nchunks, chunk_base, starts = A.spmm_chunks()
    partials = ar.reduce_acc(np.add.reduceat(prods, starts, axis=0))
    nonempty = nchunks > 0
    first_chunk = chunk_base[:-1][nonempty]
    sums = np.add.reduceat(partials, first_chunk, axis=0) % np.uint64(A.modulus.p)
    out[nonempty] = sums
    return ar.leave(out)


def spmv(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    return spmm(A, x)


# ---------------------------------------------------------------------------
# Dense oracle
# ---------------------------------------------------------------------------


def dense_gauss(mat: np.ndarray, m: FieldModulus):
    """Reduced row echelon form by straightforward elimination.

    Brute-force reference path; dimensions are capped so it never becomes
    an accidental production engine.  Returns (rank, rref, pivot_cols).
    """
    mat = np.asarray(mat, dtype=np.uint64) % np.uint64(m.p)
    r, c = mat.shape if mat.ndim == 2 else (0, 0)
    if max(r, c, 1) > DENSE_CAP:
        raise SizeCapError(f"dense path capped at {DENSE_CAP}, got {r}x{c}")
    A = mat.copy()
    p = np.uint64(m.p)
    row = 0
    pivots = []
    for col in range(c):
        if row == r:
            break
        nz = np.flatnonzero(A[row:, col])
        if len(nz) == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            A[[row, piv]] = A[[piv, row]]
        inv = np.uint64(pow(int(A[row, col]), m.p - 2, m.p))
        A[row] = A[row] * inv % p
        others = np.flatnonzero(A[:, col])
        others = others[others != row]
        if len(others):
            coef = (p - A[others, col])[:, None]
            A[others] = (A[others] + coef * A[row][None, :]) % p
        pivots.append(col)
        row += 1
    return row, A, pivots


def dense_rank(mat: np.ndarray, m: FieldModulus) -> int:
    return dense_gauss(mat, m)[0]


def dense_right_nullspace(mat: np.ndarray, m: FieldModulus):
    """Basis of {v : mat v = 0} from the RREF free columns."""
    mat = np.asarray(mat, dtype=np.uint64)
    rank, rref, pivots = dense_gauss(mat, m)
    n = mat.shape[1]
    free = [j for j in range(n) if j not in set(pivots)]
    p = m.p
    basis = []
    for j in free:
        v = np.zeros(n, dtype=np.uint64)
        v[j] = 1
        for i, pc in enumerate(pivots):
            coef = int(rref[i, j])
            if coef:
                v[pc] = p - coef
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Known-pivot elimination
# ---------------------------------------------------------------------------


@dataclass
class EchelonResult:
    """Echelon form of a batch matrix, split by leading-column provenance.

    ``pivot_cols`` lists the leading columns of all rows of the reduced row
    echelon form (ascending).  Rows are (lead_col, col_array, val_array) and
    monic.  ``nonpivot_rows`` are the RREF rows whose leading columns no
    input row led at; they are fully reduced in either mode.  ``pivot_rows``
    hold one row per distinct input leading column: the RREF rows when the
    engine ran with ``back_reduce=True``, otherwise the chosen known-pivot
    input rows, only made monic.
    """

    pivot_cols: list
    pivot_rows: list
    nonpivot_rows: list
    zero_row_count: int
    rank: int
    fill_generated: int


def _addmod(a: np.ndarray, b: np.ndarray, p: np.uint64) -> np.ndarray:
    s = a + b
    return np.where(s >= p, s - p, s)


def _sweep(B, own, pivot_cols, pivots, ar):
    """Zero every pivot column of the dense block B in place.

    Pivot columns are visited in ascending order; each pivot row is monic
    and leads at its column, so an update never touches a column already
    visited.  When ``own`` is given, ``own[i]`` is the pivot column row i
    itself leads at, and that entry is kept.  Only columns that hold a
    nonzero or that some update reached are inspected.
    """
    p = ar.m._p_u64
    queued = B.any(axis=0)
    for c in pivot_cols:
        if not queued[c]:
            continue
        col = B[:, c]
        nz = np.flatnonzero(col)
        if own is not None:
            nz = nz[own[nz] != c]
        if len(nz) == 0:
            continue
        pc, pv = pivots[c]
        coef = p - col[nz]
        if len(nz) == 1:
            r = int(nz[0])
            B[r, pc] = _addmod(B[r, pc], ar.mul(pv, coef[0]), p)
        else:
            ix = np.ix_(nz, pc)
            B[ix] = _addmod(B[ix], ar.mul(coef[:, None], pv[None, :]), p)
        queued[pc] = True


def _row_echelon(R, ar):
    """Forward elimination of a small dense block, in place.

    Returns [(local_lead, monic_row)] with distinct, ascending leads; the
    other rows of R end up zero.
    """
    p = ar.m._p_u64
    alive = np.ones(R.shape[0], dtype=bool)
    found = []
    for j in range(R.shape[1]):
        cand = np.flatnonzero((R[:, j] != 0) & alive)
        if len(cand) == 0:
            continue
        r, rest = int(cand[0]), cand[1:]
        row = ar.mul(R[r], np.uint64(ar.inv(int(R[r, j]))))
        alive[r] = False
        if len(rest):
            coef = p - R[rest, j]
            R[rest] = _addmod(R[rest], ar.mul(coef[:, None], row[None, :]), p)
        found.append((j, row))
        if not alive.any():
            break
    return found


def _entry_positions(A: CsrMatrix, rows: np.ndarray):
    """Positions of the entries of the given rows in A's arrays, row by row."""
    lens = A.row_ptr[rows + 1] - A.row_ptr[rows]
    offsets = np.repeat(A.row_ptr[rows] - exclusive_scan(lens)[:-1], lens)
    return offsets + np.arange(int(lens.sum()), dtype=np.int64), lens


def _dense_block(A: CsrMatrix, rows: np.ndarray, vals: np.ndarray):
    """Rows of A (values already in the working domain) as a dense block."""
    at, lens = _entry_positions(A, rows)
    local = np.repeat(np.arange(len(rows)), lens)
    B = np.zeros((len(rows), A.n_cols), dtype=np.uint64)
    B[local, A.col_ind[at]] = vals[at]
    return B, local, A.col_ind[at]


def psge_reduce(A: CsrMatrix, panel_width: int = 256, back_reduce: bool = True) -> EchelonResult:
    """Known-pivot elimination of an F4 batch matrix.

    1. Known pivots: one row per distinct input leading column, the one
       with the fewest nonzeros (lowest row index on ties), made monic.
    2. Sweep: the remaining rows, ``panel_width`` at a time as a dense block
       (at most panel_width x n_cols words), have every pivot column
       cleared in ascending order.  Entries that were zero in the input row
       and are nonzero after the sweep count as ``fill_generated``.
    3. Remainder: forward elimination of each swept block finds the new
       leading columns; their rows join the known pivots for later blocks.
       A final back-substitution among the new rows makes them RREF rows.

    With ``back_reduce=True`` the known-pivot rows are back-substituted as
    well, so ``pivot_rows`` + ``nonpivot_rows`` are the full RREF.  F4
    batches read only ``nonpivot_rows`` and pass ``back_reduce=False``; the
    final interreduction passes ``back_reduce=True``.
    """
    if panel_width < 1:
        raise PreconditionError("panel_width must be >= 1")
    m = A.modulus
    ar = KernelArith(m)
    n_cols = A.n_cols
    vals = ar.enter(A.val)
    lens = np.diff(A.row_ptr)
    live = np.flatnonzero(lens)
    leads = A.col_ind[A.row_ptr[live]]
    order = np.lexsort((live, lens[live], leads))
    first = np.ones(len(order), dtype=bool)
    first[1:] = leads[order][1:] != leads[order][:-1]
    known_rows = live[order[first]]
    known_cols = leads[order[first]]
    rest = np.sort(live[order[~first]])

    # monic known pivots, as views into one scaled copy of their entries
    at, known_lens = _entry_positions(A, known_rows)
    invs = [ar.inv(x) for x in vals[A.row_ptr[known_rows]].tolist()]
    scaled = vals.copy()
    scaled[at] = ar.mul(vals[at], np.repeat(np.array(invs, dtype=np.uint64), known_lens))
    pivots: dict = {}
    for i, c in zip(known_rows.tolist(), known_cols.tolist()):
        s, e = int(A.row_ptr[i]), int(A.row_ptr[i + 1])
        pivots[c] = (A.col_ind[s:e], scaled[s:e])
    pivot_cols = known_cols.tolist()

    fill = 0
    new_cols: list = []
    for k in range(0, len(rest), panel_width):
        B, local, cols = _dense_block(A, rest[k : k + panel_width], vals)
        _sweep(B, None, pivot_cols, pivots, ar)
        nonzero = B != 0
        fill += int(nonzero.sum()) - int(nonzero[local, cols].sum())
        alive = np.flatnonzero(nonzero.any(axis=1))
        if len(alive) == 0:
            continue
        support = np.flatnonzero(nonzero[alive].any(axis=0))
        for j, row in _row_echelon(B[np.ix_(alive, support)], ar):
            nz = np.flatnonzero(row)
            pivots[int(support[j])] = (support[nz], row[nz])
            new_cols.append(int(support[j]))
        pivot_cols = sorted(pivots)

    # back-substitution: each pivot row loses every other pivot column
    reduced = dict(pivots)
    targets = sorted(pivots) if back_reduce else sorted(new_cols)
    for k in range(0, len(targets), panel_width):
        chunk = targets[k : k + panel_width]
        B = np.zeros((len(chunk), n_cols), dtype=np.uint64)
        for r, c in enumerate(chunk):
            pc, pv = pivots[c]
            B[r, pc] = pv
        _sweep(B, np.array(chunk), pivot_cols if back_reduce else targets, pivots, ar)
        for r, c in enumerate(chunk):
            nz = np.flatnonzero(B[r])
            reduced[c] = (nz, B[r, nz])

    new = set(new_cols)
    pivot_rows, nonpivot_rows = [], []
    for c in pivot_cols:
        pc, pv = reduced[c]
        (nonpivot_rows if c in new else pivot_rows).append((c, pc, ar.leave(pv)))
    rank = len(pivot_cols)
    return EchelonResult(
        pivot_cols=pivot_cols,
        pivot_rows=pivot_rows,
        nonpivot_rows=nonpivot_rows,
        zero_row_count=A.n_rows - rank,
        rank=rank,
        fill_generated=fill,
    )


# ---------------------------------------------------------------------------
# Berlekamp-Massey and Wiedemann
# ---------------------------------------------------------------------------


def berlekamp_massey(seq, m: FieldModulus):
    """Minimal linear recurrence of a sequence over F_p.

    Returns the monic characteristic polynomial as an ascending coefficient
    list [c_0, ..., c_{L-1}, 1]: for all valid k,
    s_{k+L} + c_{L-1} s_{k+L-1} + ... + c_0 s_k = 0.
    """
    seq = [int(x) % m.p for x in seq]
    if not seq:
        raise PreconditionError("empty sequence")
    p = m.p
    C = [1]
    B = [1]
    L, shift, b = 0, 1, 1
    for n, s in enumerate(seq):
        d = s
        for i in range(1, L + 1):
            d = (d + C[i] * seq[n - i]) % p
        if d == 0:
            shift += 1
            continue
        coef = d * pow(b, p - 2, p) % p
        if 2 * L <= n:
            T = C[:]
            C = C + [0] * (len(B) + shift - len(C))
            for i, cb in enumerate(B):
                C[i + shift] = (C[i + shift] - coef * cb) % p
            L, B, b, shift = n + 1 - L, T, d, 1
        else:
            C = C + [0] * max(0, len(B) + shift - len(C))
            for i, cb in enumerate(B):
                C[i + shift] = (C[i + shift] - coef * cb) % p
            shift += 1
    # connection C(x) = 1 + c_1 x + ... annihilates s_n + sum c_i s_{n-i};
    # the characteristic polynomial is its reverse
    C = C[: L + 1] + [0] * max(0, L + 1 - len(C))
    return [c % p for c in reversed(C)]


@dataclass
class KernelBasis:
    vectors: list = field(default_factory=list)
    dimension_found: int = 0
    seed_trail: tuple = ()


def _block_proj(U: np.ndarray, W: np.ndarray, p: int) -> np.ndarray:
    prods = (U * W) % np.uint64(p)
    return prods.sum(axis=0, dtype=np.uint64) % np.uint64(p)


def _try_extend_basis(vec: np.ndarray, reduced: list, p: int) -> bool:
    """Incremental reduction; appends vec to the basis iff independent."""
    v = vec.copy() % np.uint64(p)
    for lead, bvec in reduced:
        c = int(v[lead])
        if c:
            v = (v + (p - c) * bvec) % np.uint64(p)
    nz = np.flatnonzero(v)
    if len(nz) == 0:
        return False
    lead = int(nz[0])
    v = v * np.uint64(pow(int(v[lead]), p - 2, p)) % np.uint64(p)
    reduced.append((lead, v))
    return True


def wiedemann_solve(
    A: CsrMatrix, seed: int, max_vectors: int, block_width: int = 4, max_rounds: int = 12
):
    """Verified right-kernel vectors of A from seeded Krylov probe rounds.

    A square A is its own operator; a rectangular one is framed through
    A^T A, and every candidate is checked against A itself.  Each round
    probes ``block_width`` vectors; degenerate draws retry with derived
    seeds.

    ``max_vectors`` is the nullity the caller expects (from elimination):
    the solve returns as soon as that many independent vectors are found,
    returns at once with an empty seed trail when it is 0, and raises
    ProbabilisticFailureError with the seed trail when the round budget
    ends short of it.
    """
    if max_vectors < 0:
        raise PreconditionError("max_vectors must be >= 0")
    if block_width < 1:
        raise PreconditionError("block_width must be >= 1")
    dim = A.n_cols
    if dim == 0 or max_vectors == 0:
        return KernelBasis([], 0, ())
    m = A.modulus
    p = m.p
    if A.n_rows == A.n_cols:
        apply_b = lambda X: spmm(A, X)
    else:
        At = csr_transpose(A)
        apply_b = lambda X: spmm(At, spmm(A, X))

    root = np.random.SeedSequence(seed)
    trail = []
    reduced: list = []
    vectors: list = []

    for round_no in range(max_rounds):
        child = root.spawn(1)[0]
        trail.append((seed, round_no))
        rng = np.random.default_rng(child)
        V = rng.integers(0, p, (dim, block_width), dtype=np.uint64)
        U = rng.integers(0, p, (dim, block_width), dtype=np.uint64)
        seqs = np.empty((2 * dim, block_width), dtype=np.uint64)
        W = V.copy()
        for k in range(2 * dim):
            seqs[k] = _block_proj(U, W, p)
            W = apply_b(W)

        for j in range(block_width):
            if len(vectors) >= max_vectors:
                break
            f = berlekamp_massey(seqs[:, j].tolist(), m)
            t = next((i for i, c in enumerate(f) if c), None)
            if t is None or t == 0:
                continue
            g = np.array(f[t:], dtype=np.uint64)
            v = V[:, j : j + 1]
            acc = g[-1] * v % np.uint64(p)
            for c in g[:-1][::-1].tolist():
                acc = (apply_b(acc) + np.uint64(c) * v) % np.uint64(p)
            for _ in range(t - 1):
                nxt = apply_b(acc)
                if (nxt == 0).all():
                    break
                acc = nxt
            w = acc[:, 0]
            if (w == 0).all():
                continue
            if (spmv(A, w) != 0).any():
                continue  # A^T A kernel vector outside ker(A); reject and retry
            if _try_extend_basis(w, reduced, p):
                vectors.append(w.copy())
        if len(vectors) >= max_vectors:
            break

    if len(vectors) < max_vectors:
        raise ProbabilisticFailureError(
            f"found {len(vectors)} of {max_vectors} kernel vectors; "
            f"round budget {max_rounds} spent", trail
        )
    return KernelBasis(vectors, len(vectors), tuple(trail))


def left_kernel(A: CsrMatrix, count: int, seed: int, block_width: int = 4) -> KernelBasis:
    """Independent vectors v with v^T A = 0.

    ``count`` is the nullity the caller expects.  Size-dispatched: the
    dense oracle engine below the cap returns the whole exact left kernel
    at every ``count``, 0 included, so a nullity above ``count`` shows as
    more vectors than expected; above it, Wiedemann on the transpose
    (``block_width`` probe vectors per round) returns exactly ``count`` or
    raises ProbabilisticFailureError.  Every vector is re-verified by one
    SpMV on A^T.
    """
    if count < 0:
        raise PreconditionError("count must be >= 0")
    At = csr_transpose(A)
    if max(A.n_rows, A.n_cols) <= DENSE_CAP:
        vectors = dense_right_nullspace(At.to_dense(), A.modulus)
        trail = ()
    else:
        kb = wiedemann_solve(At, seed, count, block_width=block_width)
        vectors, trail = kb.vectors, kb.seed_trail
    for v in vectors:
        if (spmv(At, v) != 0).any():
            raise PropertyViolationError("left kernel candidate fails v^T A = 0")
    return KernelBasis(vectors, len(vectors), trail)
