"""Sparse exact linear algebra over F_p on compiled batch matrices.

CSR matrices materialize directly from layout plans.  A batch matrix is
checked structurally once, by ``LayoutPlan.validate`` when ``compile_batch``
builds its plan; ``csr_from_plan`` and ``csr_transpose`` build matrices
without checking them again.  ``csr_from_arrays`` and ``csr_from_dense``,
whose arrays come from elsewhere, run ``CsrMatrix.validate``.  Three engines
work on them:

- ``psge_reduce``: known-pivot elimination in the style of Faugere-Lachartre.
  One sparsest row per distinct input leading column is a known pivot; each
  other row has the known pivot columns swept out on its own, and the swept
  remainder is brought to reduced row echelon form (RREF), the new pivots.
  ``back_reduce=True`` also back-substitutes the known pivots: the whole RREF.
  It has two routes.  A batch of at most ``SMALL_ENTRIES`` entries, by a
  fixed rule, runs on Python ints over each row's sparse entries and
  eliminates by one row sweep alone: each remainder row is swept by the
  known pivots, then by the new pivots found so far, and joins them if
  anything is left; one last pass back-substitutes.  On a larger batch the
  known-pivot sweep and the back-substitution run one sweep kernel at every
  prime: one dependency level of pivots at a time, as float64 products
  through BLAS, with one reduction at the end while ``fp.float_exact``
  keeps every partial sum exact, or else (31-bit primes) on balanced 16-bit
  limbs, reduced per part; the swept remainder is one dense block for its
  own Gauss-Jordan code, every block within ``BLOCK_BYTES``.  A swept row
  and an RREF are unique, so the routes give the same bytes, and tests
  compare each with the others and with a column loop;
- ``dense_gauss``: the brute-force oracle (size-capped) used to cross-check
  ranks, row spaces, and null spaces; ``left_kernel`` is its left kernel;
- ``wiedemann_solve``: black-box right-kernel extraction by block
  Wiedemann (Coppersmith).  Each round projects one Krylov sequence of b
  probe vectors to b x b blocks, finds its minimal matrix generator from a
  sigma-basis (``sigma_basis.block_generator``, which at b = 1 is
  ``berlekamp_massey``), and turns it into up to b kernel vectors by one
  block Horner evaluation.  A rectangular A is framed through A^T A and
  every candidate is verified against A itself by SpMV.  The operator (A,
  or A^T A formed once, exactly, mod p) is ``fp.matmul_mod`` on a float64
  dense copy where that product takes its float64 tier and each dense copy
  fits ``BLOCK_BYTES``; otherwise (31-bit primes, large dimensions) it is
  ``spmm``, by A and then A^T.  Every caller passes the nullity it knows
  from elimination as the target: b follows from it (``_block_width``),
  the solve stops once it is reached and fails loudly when the round
  budget, sized from the target, ends short of it.

Every engine computes in the standard domain: products of residues,
reduced with ``%`` once per lazy window (``FieldModulus.lazy_window_k``),
or in float64 with one reduction where ``fp.float_exact`` holds.

All randomness is seeded and every probabilistic result carries its seed
trail for replay.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .bulk import exclusive_scan, radix_sort, segment_defects
from .errors import (
    PreconditionError,
    ProbabilisticFailureError,
    PropertyViolationError,
    SizeCapError,
)
from .fp import FieldModulus, float_exact, inv_list, inv_vec, matmul_mod, mod_exact
from .sigma_basis import block_generator, column_dependencies
from .symbolic import LayoutPlan

DENSE_CAP = 512
# bytes of the largest dense block psge_reduce, or wiedemann_solve's operator, allocates
BLOCK_BYTES = 1 << 24
# psge_reduce takes its scalar route on a batch of at most this many entries.
# Against the level sweep on F4's batches (katsura-4 to 7, cyclic-5 and 6)
# it takes 0.3-1.0x the time up to 527 entries and 1.0-2.9x from 547 up, at
# p = 65537 and at 2147483629; 450 keeps katsura-4's 475-entry batch on the
# sweep.  Fully dense blocks break even sooner: 16 x 16 takes 0.6-1.0x,
# 20 x 20 1.0-1.6x
SMALL_ENTRIES = 450
# pivots per part in the limb tier of _sweep_levels: each adds at most
# 3 * 2^44 to a partial sum, so 127 give at most 381 * 2^44, and a balanced
# entry (within 2^30 + 2) less that stays below 2^53 (the bound admits 170)
_LIMB_PIVOTS = 127


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
            k = self.modulus.lazy_window_k
            nchunks = -(-np.diff(self.row_ptr) // k)
            chunk_base = exclusive_scan(nchunks)
            row_of_chunk = np.repeat(np.arange(self.n_rows), nchunks)
            within = np.arange(int(chunk_base[-1]), dtype=np.int64) - np.repeat(chunk_base[:-1], nchunks)
            self._chunks = (nchunks, chunk_base, self.row_ptr[row_of_chunk] + k * within)
        return self._chunks

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.uint64)
        out[np.repeat(np.arange(self.n_rows), np.diff(self.row_ptr)), self.col_ind] = self.val
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

    The arrays are not checked again: ``LayoutPlan.validate``, which
    ``compile_batch`` runs on every plan, is the batch matrix's one
    structural check and covers every invariant ``CsrMatrix.validate``
    does.  ``m`` must be the plan's field.
    """
    if m.p != plan.ring.modulus.p:
        raise PreconditionError(f"plan is over F_{plan.ring.modulus.p}, not F_{m.p}")
    return CsrMatrix(plan.n_rows, plan.n_cols, plan.row_ptr, plan.col_ind, plan.val, m)


def csr_transpose(A: CsrMatrix) -> CsrMatrix:
    """Transpose by stable counting sort on column indices.

    The result is not checked: a stable counting sort of a valid matrix
    (one ``csr_from_arrays`` or ``LayoutPlan.validate`` checked) is a valid
    transpose, its columns ascending within each row.  Built on first use
    and kept on both matrices, each linked to the other, so
    ``csr_transpose(csr_transpose(A))`` is ``A`` itself; a CsrMatrix is not
    changed once it is made.
    """
    if A._transpose is None:
        _, perm = radix_sort(A.col_ind.astype(np.uint64).reshape(-1, 1))
        row_of = np.repeat(np.arange(A.n_rows, dtype=np.int64), np.diff(A.row_ptr))
        t_row_ptr = exclusive_scan(np.bincount(A.col_ind, minlength=A.n_cols))
        T = CsrMatrix(A.n_cols, A.n_rows, t_row_ptr, row_of[perm], A.val[perm], A.modulus)
        A._transpose, T._transpose = T, A
    return A._transpose


# ---------------------------------------------------------------------------
# SpMV / SpMM with windowed lazy accumulation
# ---------------------------------------------------------------------------


def spmm(A: CsrMatrix, X: np.ndarray) -> np.ndarray:
    """Exact A @ X over F_p for a dense block X of shape (n_cols, b).

    Products accumulate unreduced inside the lazy window; one reduction
    runs per window chunk and one per row.
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
    p = np.uint64(A.modulus.p)
    prods = A.val[:, None] * X[A.col_ind]
    nchunks, chunk_base, starts = A.spmm_chunks()
    partials = np.add.reduceat(prods, starts, axis=0) % p
    nonempty = nchunks > 0
    out[nonempty] = np.add.reduceat(partials, chunk_base[:-1][nonempty], axis=0) % p
    return out


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
    """Basis of {v : mat v = 0}, one vector per RREF free column, ascending.

    The vector of free column j is 1 at j and, at each pivot column, minus
    that pivot row's entry in column j.
    """
    mat = np.asarray(mat, dtype=np.uint64)
    rank, rref, pivots = dense_gauss(mat, m)
    n = mat.shape[1]
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((len(free), n), dtype=np.uint64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (m.p - rref[:rank, free].T) % np.uint64(m.p)
    return list(basis)


# ---------------------------------------------------------------------------
# Known-pivot elimination
# ---------------------------------------------------------------------------


@dataclass
class EchelonResult:
    """Echelon form of a batch matrix, split by leading-column provenance.

    Both row sets are CSR ``_Pivots`` of monic rows ascending by lead; each
    iterates as (lead_col, col_array, val_array).  ``nonpivot_rows`` are the
    RREF rows whose leading columns no input row led at; they are fully
    reduced in either mode.  ``pivot_rows`` hold one row per distinct input
    leading column: the RREF rows when the engine ran with
    ``back_reduce=True``, otherwise the chosen known-pivot input rows, only
    made monic.  ``n_rows`` is the input's row count.  The rank, the zero
    row count and the pivot columns follow from these and are properties.
    """

    pivot_rows: _Pivots
    nonpivot_rows: _Pivots
    n_rows: int
    fill_generated: int

    @property
    def rank(self) -> int:
        return len(self.pivot_rows) + len(self.nonpivot_rows)

    @property
    def zero_row_count(self) -> int:
        return self.n_rows - self.rank

    @property
    def pivot_cols(self) -> list:
        """The leading columns of all rows of the reduced row echelon form, ascending."""
        return sorted(self.pivot_rows.leads.tolist() + self.nonpivot_rows.leads.tolist())


def _ptr(lens: np.ndarray) -> np.ndarray:
    """CSR pointers of rows of the given lengths: ``exclusive_scan`` without its input checks."""
    out = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return out


def _renumber(x: np.ndarray, n: int):
    """The distinct values of x, all in [0, n), ascending, and each entry's place among them.

    ``np.unique(x, return_inverse=True)`` by a mask and a running count, without a sort.
    """
    seen = np.zeros(n, dtype=bool)
    seen[x] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[x]


def _entry_positions(row_ptr: np.ndarray, rows: np.ndarray):
    """Positions of the entries of the given CSR rows, row by row, and the row lengths."""
    starts = row_ptr[rows]
    lens = row_ptr[rows + 1] - starts
    ptr = _ptr(lens)
    return np.repeat(starts - ptr[:-1], lens) + np.arange(ptr[-1]), lens


@dataclass
class _Pivots:
    """Monic pivot rows as CSR arrays.

    Row i leads at ``leads[i]``: its first entry, of value 1.
    """

    leads: np.ndarray
    ptr: np.ndarray
    ind: np.ndarray
    val: np.ndarray

    @staticmethod
    def of_rows(row_ptr, col_ind, val, rows):
        at, lens = _entry_positions(row_ptr, rows)
        ptr = _ptr(lens)
        ind = col_ind[at]
        return _Pivots(ind[ptr[:-1]], ptr, ind, val[at])

    @staticmethod
    def empty():
        z = np.zeros(0, dtype=np.int64)
        return _Pivots(z, np.zeros(1, dtype=np.int64), z, np.zeros(0, dtype=np.uint64))

    @staticmethod
    def concat(a, b):
        return _Pivots(
            np.concatenate([a.leads, b.leads]),
            np.concatenate([a.ptr[:-1], b.ptr + a.ptr[-1]]),
            np.concatenate([a.ind, b.ind]),
            np.concatenate([a.val, b.val]),
        )

    def take(self, rows):
        """The given rows, in the given order."""
        return _Pivots.of_rows(self.ptr, self.ind, self.val, rows)

    def __len__(self):
        return len(self.leads)

    def __iter__(self):
        """(lead, cols, values) per row."""
        bounds = zip(self.leads.tolist(), self.ptr[:-1].tolist(), self.ptr[1:].tolist())
        return ((c, self.ind[s:e], self.val[s:e]) for c, s, e in bounds)


def _levels(piv: _Pivots, n_cols: int) -> list:
    """The pivots grouped by dependency level, as index arrays.

    Pivot k depends on pivot j when row j has an entry in column
    ``leads[k]``: sweeping column ``leads[j]`` can create an entry there.
    Level 0 holds the pivots no other row touches; each later level, the
    pivots all of whose dependencies lie on earlier levels (Kahn's
    algorithm, one frontier per level).  No row of a level has an entry in
    another column of the same level.
    """
    n = len(piv.leads)
    at = np.full(n_cols, -1, dtype=np.int64)
    at[piv.leads] = np.arange(n)
    dst = at[piv.ind]
    src = np.repeat(np.arange(n), np.diff(piv.ptr))
    edge = (dst >= 0) & (dst != src)
    src, dst = src[edge], dst[edge]
    out_deg = np.bincount(src, minlength=n)
    out_start = np.cumsum(out_deg) - out_deg
    indeg = np.bincount(dst, minlength=n)
    levels = []
    frontier = (indeg == 0).nonzero()[0]
    while len(frontier):
        levels.append(frontier)
        # the out-edges of the frontier, each pivot's a contiguous run of dst
        lens = out_deg[frontier]
        ends = np.cumsum(lens)
        at = np.repeat(out_start[frontier] - ends + lens, lens) + np.arange(ends[-1])
        freed = np.bincount(dst[at], minlength=n)
        indeg -= freed
        frontier = ((indeg == 0) & (freed > 0)).nonzero()[0]
    return levels


@dataclass
class _Part:
    """One level of a sweep schedule, or one part of a level.

    P, once built, is ``shape`` float64 zeros with ``val`` at the flat
    positions ``pos``: the part's pivot rows less their leads, on the
    columns ``support`` they touch; in the limb tier, over those rows times
    2^16 mod p, both balanced.
    """

    leads: np.ndarray
    support: np.ndarray
    shape: tuple
    pos: np.ndarray
    val: np.ndarray


def _schedule(piv: _Pivots, levels: list, n_cols: int, step: int, p: int, limbs: bool) -> list:
    """The levels as ``_Part``s of at most ``step`` pivots, from a few numpy calls.

    Splitting a level changes nothing: no row of a level has an entry in
    another column of it.  With ``limbs`` each part's P is the limb tier's
    [P; P16] (``_sweep_levels``).
    """
    parts = [lv[k : k + step] for lv in levels for k in range(0, len(lv), step)]
    if not parts:
        return []
    heights = np.array([len(x) for x in parts], dtype=np.int64)
    members = np.concatenate(parts)
    at, lens = _entry_positions(piv.ptr, members)
    # each row less its lead, its first entry
    at, lens = at[at != np.repeat(piv.ptr[members], lens)], lens - 1
    part_of = np.repeat(np.repeat(np.arange(len(parts)), heights), lens)
    row_of = np.repeat(np.arange(len(members)) - np.repeat(_ptr(heights)[:-1], heights), lens)
    # the columns each part touches: distinct (part, column) pairs
    keys, col_of = np.unique(part_of * n_cols + piv.ind[at], return_inverse=True)
    sup_ptr = _ptr(np.bincount(keys // n_cols, minlength=len(parts)))
    widths = np.diff(sup_ptr)
    col_of -= sup_ptr[part_of]
    pos = row_of * widths[part_of] + col_of
    val = piv.val[at].astype(np.float64)
    if limbs:
        # P's entries, then P16's one P further on, both balanced; 2^16 P < 2^47 is exact
        pos = np.stack([pos, pos + (heights * widths)[part_of]])
        val = np.stack([val, mod_exact(val * 65536.0, p)])
        np.subtract(val, p, out=val, where=val > p // 2)
    ent_ptr = _ptr(np.bincount(part_of, minlength=len(parts))).tolist()
    sup_ptr = sup_ptr.tolist()
    support = keys % n_cols
    return [
        _Part(piv.leads[part], support[sup_ptr[i] : sup_ptr[i + 1]], ((1 + limbs) * len(part), sup_ptr[i + 1] - sup_ptr[i]),
              pos[..., ent_ptr[i] : ent_ptr[i + 1]], val[..., ent_ptr[i] : ent_ptr[i + 1]])
        for i, part in enumerate(parts)
    ]


def _sweep_levels(B, schedule: list, p: int, limbs: bool):
    """Zero every pivot column of the float64 block B in place, one part of a level at a time.

    Per part: X is the block's entries in the part's columns, and B -= X P,
    so those columns end zero.  B is column-major, so the sweep works on its
    C-contiguous transpose Bt: every gather and scatter moves whole rows.

    - Exact tier (``float_exact`` holds for the sweep's K pivots): partial
      sums stay exact integers, and one ``mod_exact`` at the end finishes B.
    - Limb tier: B is kept balanced, each entry within p/2 + 2 of zero.
      X = X0 + 2^16 X1 with X1 = rint(X / 2^16), so |X0| <= 2^15 and
      |X1| <= 2^14, and P is [P; P16], P16 = 2^16 P mod p, both balanced,
      below 2^30: each pivot adds at most 3 * 2^44 to a partial sum of
      Y = [P; P16]^T [X0; X1], which is P^T X mod p.  Z = Bt[support] - Y,
      below 2^53 and Z / p below 2^22, becomes Z - rint(Z / p) p, within
      p/2 + 2 of zero, and ``mod_exact`` at the end finishes B.
    """
    Bt = B.T
    if limbs:
        np.subtract(B, p, out=B, where=B > p // 2)
    for part in schedule:
        Xt = Bt[part.leads]
        if not Xt.any():
            continue
        P = np.zeros(part.shape)
        P.reshape(-1)[part.pos] = part.val
        Bt[part.leads] = 0
        if not limbs:
            Bt[part.support] -= P.T @ mod_exact(Xt, p)
            continue
        X1 = np.rint(Xt * 2.0**-16)
        Z = Bt[part.support]
        Z -= P.T @ np.concatenate([Xt - 65536.0 * X1, X1])
        Z -= np.rint(Z * (1.0 / p)) * p
        Bt[part.support] = Z
    mod_exact(B, p)


def _gauss_jordan(R, p: int):
    """Reduced row echelon form of a dense uint64 block, in place.

    Returns [(lead, row)], leads ascending; every other row of R ends zero.
    """
    pp = np.uint64(p)
    alive = np.ones(R.shape[0], dtype=bool)
    found = []
    for j in range(R.shape[1]):
        nz = R[:, j].nonzero()[0]
        cand = nz[alive[nz]]
        if len(cand) == 0:
            continue
        # the pivot row is zero left of j, so updates start at column j
        r = int(cand[0])
        R[r, j:] = R[r, j:] * np.uint64(pow(int(R[r, j]), p - 2, p)) % pp
        alive[r] = False
        others = nz[nz != r]
        if len(others):
            coef = pp - R[others, j]
            R[others, j:] = (R[others, j:] + coef[:, None] * R[r, j:]) % pp
        found.append((j, r))
        if not alive.any():
            break
    return found


def _dense_block(row_ptr, col_ind, val, rows, n_cols: int):
    """The given CSR rows as a float64 block; also each entry's block row and column.

    The block is column-major, so that its transpose, on which the level
    sweep works, is C-contiguous.
    """
    at, lens = _entry_positions(row_ptr, rows)
    local = np.repeat(np.arange(len(rows)), lens)
    B = np.zeros((len(rows), n_cols), order="F")
    B[local, col_ind[at]] = val[at]
    return B, local, col_ind[at]


def _chunk_rows(n_cols: int) -> int:
    """Rows of n_cols words per dense block: as many as BLOCK_BYTES holds."""
    if 8 * n_cols > BLOCK_BYTES:
        raise SizeCapError(f"one row of {n_cols} columns exceeds {BLOCK_BYTES} bytes")
    return BLOCK_BYTES // (8 * max(n_cols, 1))


def _block_entries(B, first_row: int = 0):
    """Row, column and uint64 value of every nonzero of B, row-major.

    ``np.nonzero`` yields row-major order whatever B's memory layout, so a
    column-major block needs no sort.
    """
    r, c = np.nonzero(B)
    return r + first_row, c, B[r, c].astype(np.uint64, copy=False)


def _sweep(piv: _Pivots, ptr, ind, val, rows, n_cols: int, p: int, aside: bool = False):
    """The CSR rows ``rows`` of (ptr, ind, val), each less every pivot column of ``piv``.

    Each chunk of ``_chunk_rows(n_cols)`` rows is one float64 block for
    ``_sweep_levels``, in its exact tier while ``float_exact`` holds for the
    pivot set's size, else in its limb tier, whose parts of h pivots have
    arrays of 2h rows of up to n_cols or block-row words: h keeps them in
    ``BLOCK_BYTES``, or is 1 where not even two rows fit.  With ``aside``,
    each row's lead is set aside during its sweep.  Returns the swept rows'
    nonzeros (row by place in ``rows``, column, uint64 value), row-major,
    and the number of entries the sweep created.
    """
    chunk = _chunk_rows(n_cols)
    limbs = not float_exact(len(piv.leads), p)
    step = chunk
    if limbs:
        step = max(1, min(_LIMB_PIVOTS, _chunk_rows(max(n_cols, min(len(rows), chunk))) // 2))
    schedule = _schedule(piv, _levels(piv, n_cols), n_cols, step, p, limbs)
    fill, out = 0, []
    for k in range(0, len(rows), chunk):
        part = rows[k : k + chunk]
        B, local, cols = _dense_block(ptr, ind, val, part, n_cols)
        if aside:
            lead = (np.arange(len(part)), ind[ptr[part]])
            one, B[lead] = B[lead], 0
        _sweep_levels(B, schedule, p, limbs)
        if aside:
            B[lead] = one
        out.append(_block_entries(B, k))
        fill += len(out[-1][0]) - int(np.count_nonzero(B[local, cols]))
    r, c, v = (np.concatenate(x) for x in zip(*out))
    return r, c, v, fill


def _sweep_row(row: dict, tails: dict, p: int):
    """Zero every pivot column of the sparse row ``row`` (column -> residue) in place.

    ``tails`` maps each pivot's lead to its monic row less the lead, as
    (column, value) pairs right of the lead.  The row's pivot columns are
    visited in ascending order from a heap, so an update never reaches a
    column already cleared; a column the sweep creates joins the heap.
    """
    heap = [c for c in row if c in tails]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, row.get
    while heap:
        c = pop(heap)
        v = row.pop(c, 0)
        if not v:
            continue  # a column queued twice, already cleared
        coef = p - v
        for pc, pv in tails[c]:
            old = get(pc)
            if old is None:
                row[pc] = coef * pv % p
                if pc in tails:
                    push(heap, pc)
            elif (new := (old + coef * pv) % p):
                row[pc] = new
            else:
                del row[pc]


def _pack(rows) -> _Pivots:
    """(lead, tail) of monic rows, leads ascending, as CSR ``_Pivots``.

    A tail is the row less its lead, as (column, residue) pairs ascending.
    """
    leads, ptr, ind, val = [], [0], [], []
    for lead, tail in rows:
        leads.append(lead)
        ind.append(lead)
        val.append(1)
        if tail:
            cols, vals = zip(*tail)
            ind.extend(cols)
            val.extend(vals)
        ptr.append(len(ind))
    return _Pivots(
        np.array(leads, dtype=np.int64),
        np.array(ptr, dtype=np.int64),
        np.array(ind, dtype=np.int64),
        np.array(val, dtype=np.uint64),
    )


def _psge_small(A: CsrMatrix, back_reduce: bool) -> EchelonResult:
    """``psge_reduce`` by scalar sparse sweeps (``_sweep_row``) over Python ints.

    The same steps as the numpy routes, on each row's column -> residue
    dict: the same known pivots, made monic; each remainder row swept by
    them, then by the new pivots found so far, and made monic as the next
    new pivot if anything is left; one last pass sweeps every new pivot's
    tail by every pivot, and with ``back_reduce`` every known pivot's too.
    A swept row and an RREF are unique, so the bytes are the same.  The
    remainder-block cap is checked as the numpy routes check it, on the
    rows and columns left by the known pivots.
    """
    p = A.modulus.p
    ptr, ind, val = A.row_ptr.tolist(), A.col_ind.tolist(), A.val.tolist()
    chosen: dict = {}  # lead -> the row with the fewest entries, lowest index on ties
    rest = []
    for i in range(A.n_rows):
        s, e = ptr[i], ptr[i + 1]
        if s == e:
            continue
        k = chosen.get(ind[s])
        if k is None:
            chosen[ind[s]] = i
        elif e - s < ptr[k + 1] - ptr[k]:
            chosen[ind[s]] = i
            rest.append(k)
        else:
            rest.append(i)
    rest.sort()

    # the known pivots' tails, made monic by one batch inversion, leads ascending
    leads = sorted(chosen)
    tails = {}
    for lead, inv in zip(leads, inv_list([val[ptr[chosen[c]]] for c in leads], p)):
        s, e = ptr[chosen[lead]] + 1, ptr[chosen[lead] + 1]
        tails[lead] = [(c, v * inv % p) for c, v in zip(ind[s:e], val[s:e])]

    # 1 and 2. each remainder row loses the known pivot columns, then those
    # of the new pivots so far; what is left, made monic, is the next new pivot
    fill, n_swept, support, new = 0, 0, set(), {}
    for i in rest:
        s, e = ptr[i], ptr[i + 1]
        row = dict(zip(ind[s:e], val[s:e]))
        _sweep_row(row, tails, p)
        if not row:
            continue
        fill += len(row.keys() - ind[s:e])
        n_swept += 1
        support.update(row)
        _sweep_row(row, new, p)
        if row:
            lead = min(row)
            inv = pow(row.pop(lead), p - 2, p)
            new[lead] = [(c, v * inv % p) for c, v in row.items()]
    if 8 * n_swept * len(support) > BLOCK_BYTES:
        raise SizeCapError(f"remainder block {n_swept} x {len(support)} exceeds {BLOCK_BYTES} bytes")

    # 3. back-substitution, highest lead first, so each tail is swept by
    # tails already reduced: every new pivot, and with back_reduce every known one
    every = tails | new
    for lead in sorted(every if back_reduce else new, reverse=True):
        row = dict(every[lead])
        _sweep_row(row, every, p)
        every[lead] = sorted(row.items())
    known = [(lead, every[lead]) for lead in leads]
    found = [(lead, every[lead]) for lead in sorted(new)]
    return EchelonResult(_pack(known), _pack(found), A.n_rows, fill)


def psge_reduce(A: CsrMatrix, back_reduce: bool = True) -> EchelonResult:
    """Known-pivot elimination of an F4 batch matrix (Faugere-Lachartre).

    Known pivots: per distinct input leading column, the row with the fewest
    nonzeros (lowest index on ties), made monic by one batch inversion.

    1. Sweep: every other row loses every known pivot column, independently
       of the rest, so the chunk size changes no output.  The entries this
       sweep creates are ``fill_generated``.
    2. One RREF of the nonzero swept rows: the new pivot rows
       (``nonpivot_rows``, which F4 reads), fully reduced.  The numpy route
       puts them, on the columns they still touch, in one dense block for
       Gauss-Jordan; the small route sweeps each by the new pivots found
       before it.
    3. Back-substitution, with ``back_reduce=True`` only: each known pivot
       row loses every other pivot column, for the full RREF.

    Both routes give the same bytes: a swept row and an RREF are unique,
    whatever order the updates take.  A fixed rule picks the small route per
    batch; otherwise steps 1 and 3 each call ``_sweep``.

    - Small (at most ``SMALL_ENTRIES`` entries): ``_psge_small`` runs on
      Python ints over each row's sparse entries, with no dense block; on
      such batches each numpy call costs more than the arithmetic it does.
      Its one kernel is ``_sweep_row``: steps 1 and 2 are one loop, each
      remainder row swept by the known pivots and then by the new ones
      found so far, and one last pass over the new pivots (and, with
      ``back_reduce``, the known ones) is step 3.
    - Level sweep, at every prime: by dependency level (``_levels``): all
      pivot columns of a level are cleared at once by a float64 product
      B -= X P through BLAS.  While K (p-1)^2 + p < 2^53 for the K pivots
      of the sweep (``fp.float_exact``: at p = 65537 up to 2^21 pivots, and
      for every small prime) one mod p ends the sweep; above it (31-bit
      primes) each part of a level multiplies balanced 16-bit limbs.

    Every dense block and every level's P fits in ``BLOCK_BYTES`` (a level
    is swept in parts when its P would not) or is refused with SizeCapError
    before it is allocated (``_sweep`` has the limb tier's one exception).
    The small route allocates no block but refuses the same batches: a row
    wider than ``BLOCK_BYTES`` before the route is chosen, and a remainder
    block over it, counted after the known-pivot sweep.
    """
    p = A.modulus.p
    _chunk_rows(A.n_cols)  # refuses a row wider than BLOCK_BYTES on every route
    if A.nnz() <= SMALL_ENTRIES:
        return _psge_small(A, back_reduce)
    lens = np.diff(A.row_ptr)
    live = np.flatnonzero(lens)
    leads = A.col_ind[A.row_ptr[live]]
    order = np.lexsort((live, lens[live], leads))
    first = np.ones(len(order), dtype=bool)
    first[1:] = leads[order][1:] != leads[order][:-1]
    rest = np.sort(live[order[~first]])

    # monic known pivots, ascending by lead
    known = _Pivots.of_rows(A.row_ptr, A.col_ind, A.val, live[order[first]])
    invs = inv_vec(known.val[known.ptr[:-1]], A.modulus)
    known.val = known.val * np.repeat(invs, np.diff(known.ptr)) % np.uint64(p)

    fill, new = 0, _Pivots.empty()
    if len(rest):
        # 1. sweep the remainder rows by the known pivots alone
        rows, cols, sv, fill = _sweep(known, A.row_ptr, A.col_ind, A.val, rest, A.n_cols, p)

        # 2. one RREF of the nonzero swept rows on the columns they still touch
        live_rows, at_row = _renumber(rows, len(rest))
        support, at_col = _renumber(cols, A.n_cols)
        shape = (len(live_rows), len(support))
        if 8 * shape[0] * shape[1] > BLOCK_BYTES:
            raise SizeCapError(f"remainder block {shape[0]} x {shape[1]} exceeds {BLOCK_BYTES} bytes")
        R = np.zeros(shape, dtype=np.uint64)
        R[at_row, at_col] = sv
        found = np.array(_gauss_jordan(R, p), dtype=np.int64).reshape(-1, 2)
        r, c, v = _block_entries(R[found[:, 1]])
        new = _Pivots(support[found[:, 0]], _ptr(np.bincount(r, minlength=len(found))), support[c], v)

    # 3. each known pivot row, its lead set aside, loses every other pivot column
    if back_reduce and len(known.leads):
        n_known = len(known.leads)
        every = _Pivots.concat(known, new)
        r, c, v, _ = _sweep(every, known.ptr, known.ind, known.val, np.arange(n_known), A.n_cols, p, aside=True)
        known = _Pivots(known.leads, _ptr(np.bincount(r, minlength=n_known)), c, v)

    return EchelonResult(known, new, A.n_rows, fill)


# ---------------------------------------------------------------------------
# Berlekamp-Massey and block Wiedemann
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
    spmm_calls: int = 0  # operator applications, on either route, plus SpMV checks


def _echelon_step(v: np.ndarray, rows: list, p: int, w: np.ndarray | None = None):
    """Reduce v by the echelon ``rows``; unless it ends zero, append it to them.

    ``rows`` are (lead, r, s), r in echelon form and 1 at its lead.  Each
    row whose lead v holds clears it, v -= c r; a companion w, when given,
    takes the same update by s.  A nonzero v is appended scaled to 1 at its
    first nonzero, its companion scaled with it.  Returns whether v was
    appended, and the reduced companion.
    """
    pp = np.uint64(p)
    for lead, r, s in rows:
        c = int(v[lead])
        if c:
            v = (v + (p - c) * r) % pp
            if w is not None:
                w = (w + (p - c) * s) % pp
    nz = np.flatnonzero(v)
    if len(nz) == 0:
        return False, w
    inv = np.uint64(pow(int(v[nz[0]]), p - 2, p))
    rows.append((int(nz[0]), v * inv % pp, None if w is None else w * inv % pp))
    return True, w


def _block_width(max_vectors: int) -> int:
    """b near the target nullity takes one or two rounds; past 16 the sigma-basis costs more."""
    return min(max(max_vectors, 4), 16)


def _operator(A: CsrMatrix):
    """X -> B X mod p for block Wiedemann's operator: B = A when square, else A^T A.

    ``fp.matmul_mod`` with a float64 dense copy of B, when that product
    takes its float64 tier (``float_exact`` on its inner dimension) and
    every dense copy fits ``BLOCK_BYTES``; a rectangular B is formed once,
    exactly, by ``matmul_mod`` too.  Otherwise (31-bit primes, large
    dimensions) ``spmm``, through A and then A^T.  Both give the same
    residues.
    """
    p, n = A.modulus.p, A.n_cols
    square = A.n_rows == n
    if not (
        float_exact(n, p)
        and (square or float_exact(A.n_rows, p))
        and 8 * n * max(A.n_rows, n) <= BLOCK_BYTES
    ):
        if square:
            return lambda X: spmm(A, X)
        At = csr_transpose(A)
        return lambda X: spmm(At, spmm(A, X))
    B = _dense_block(A.row_ptr, A.col_ind, A.val, np.arange(A.n_rows), n)[0]
    if not square:
        B = matmul_mod(B.T, B, A.modulus).astype(np.float64)
    return lambda X: matmul_mod(B, X, A.modulus)


def wiedemann_solve(
    A: CsrMatrix, seed: int, max_vectors: int, block_width: int | None = None, max_rounds: int | None = None
):
    """Verified right-kernel vectors of A by block Wiedemann (Coppersmith).

    A square A is its own operator B; a rectangular one is framed through
    B = A^T A, and every candidate is checked against A itself.  B is
    applied by ``_operator``, through BLAS where that is exact.  Each
    seeded round draws b probes U and V (see below), takes the
    L = 2 ceil(dim / b) + 2 projections S_k = U^T B^k V, and finds their
    minimal right generator F (``block_generator``), so F(B) V = 0 once
    L is long enough.  Each dependency among the columns of F(0) gives a
    combination of F's columns x^t g(x), t > 0; then w = g(B) V, all of
    them in one block Horner, with B applied while the image stays
    nonzero, is a kernel vector candidate.  So a round yields up to b
    vectors.  A candidate outside ker(A) is kept as a stray, its image
    under A in echelon form (``_echelon_step`` with the candidate as
    companion), until strays combine into a vector inside it: over a small
    field A^T A often has kernel vectors outside ker(A), and their images
    span few dimensions.  Kernel vectors join the result while they are
    independent (``_echelon_step`` again).

    ``max_vectors`` is the nullity the caller expects (from elimination),
    at most the dimension: the solve returns as soon as that many
    independent vectors are found, returns at once with an empty seed trail
    when it is 0, and raises ProbabilisticFailureError with the seed trail
    when the round budget ends short of it.  Unless given, b is
    min(max(max_vectors, 4), 16) and the budget ceil(max_vectors / b) + 12 rounds.
    """
    if not 0 <= max_vectors <= A.n_cols:
        raise PreconditionError(f"max_vectors must be in 0..{A.n_cols}, got {max_vectors}")
    b = _block_width(max_vectors) if block_width is None else block_width
    if b < 1:
        raise PreconditionError("block_width must be >= 1")
    dim = A.n_cols
    if dim == 0 or max_vectors == 0:
        return KernelBasis([], 0, ())
    if max_rounds is None:
        max_rounds = -(-max_vectors // b) + 12
    m = A.modulus
    p = m.p
    calls = 0
    operator = _operator(A)

    def apply_b(X):
        nonlocal calls
        calls += 1
        return operator(X)

    def check(w):
        nonlocal calls
        calls += 1
        return spmv(A, w)

    L = 2 * -(-dim // b) + 2

    root = np.random.SeedSequence(seed)
    trail = []
    reduced: list = []
    vectors: list = []
    strays: list = []

    for round_no in range(max_rounds):
        child = root.spawn(1)[0]
        trail.append((seed, round_no))
        rng = np.random.default_rng(child)
        V = rng.integers(0, p, (dim, b), dtype=np.uint64)
        Ut = rng.integers(0, p, (dim, b), dtype=np.uint64).T
        S = np.empty((L, b, b), dtype=np.uint64)
        W = V
        for k in range(L):
            S[k] = matmul_mod(Ut, W, m)
            if k + 1 < L:
                W = apply_b(W)

        # the generator's columns combined, lowest degrees first, into
        # columns x^t g(x) with t > 0: one per dependency of their constant terms
        gens = block_generator(S, m)
        gs, ts = [], []
        for j, comb in column_dependencies(np.array([f[0] for f in gens]).T.tolist(), range(b), p)[1].items():
            f = np.zeros_like(gens[j])
            for i, c in comb.items():
                f[: len(gens[i])] = (f[: len(gens[i])] + np.uint64(c) * gens[i]) % np.uint64(p)
            t = int(f.any(axis=1).nonzero()[0][0])
            gs.append(f[t:])
            ts.append(t)
        if not gs:
            continue
        top = max(len(g) for g in gs)
        G = np.zeros((top, b, len(gs)), dtype=np.uint64)
        for n, g in enumerate(gs):
            G[: len(g), :, n] = g
        # Horner from the top coefficient: acc = sum_i B^i V g_i, column by column
        acc = matmul_mod(V, G[-1], m)
        for coef in G[-2::-1]:
            acc = (apply_b(acc) + matmul_mod(V, coef, m)) % np.uint64(p)
        # B^t acc = 0 when the generator is right: apply B while the image is nonzero
        steps = np.array(ts) - 1
        live = np.flatnonzero(steps)
        while len(live):
            nxt = apply_b(acc[:, live])
            moved = nxt.any(axis=0)
            acc[:, live[moved]] = nxt[:, moved]
            steps[live] -= 1
            live = live[moved & (steps[live] > 0)]
        for w in acc[:, acc.any(axis=0)].T:
            if len(vectors) >= max_vectors:
                break
            y = check(w)
            if y.any():  # an A^T A kernel vector outside ker(A), or a wrong generator
                # unless y joins the strays' images, w less the strays that
                # reduce y to zero is in ker(A)
                stray, w = _echelon_step(y, strays, p, w)
                if stray or check(w).any():
                    continue
            if _echelon_step(w, reduced, p)[0]:
                vectors.append(w.copy())
        if len(vectors) >= max_vectors:
            break

    if len(vectors) < max_vectors:
        raise ProbabilisticFailureError(
            f"found {len(vectors)} of {max_vectors} kernel vectors; "
            f"round budget {max_rounds} spent", trail
        )
    return KernelBasis(vectors, len(vectors), tuple(trail), calls)


def left_kernel(A: CsrMatrix, count: int, seed: int = 0) -> KernelBasis:
    """Every independent v with v^T A = 0, by the dense oracle.

    It returns the whole exact left kernel at every ``count`` (the nullity
    the caller expects), 0 included, so a nullity above ``count`` shows as
    more vectors than expected.  A matrix with more than ``DENSE_CAP`` rows
    or columns raises SizeCapError before any dense array is allocated; its
    left kernel is ``wiedemann_solve``'s on ``csr_transpose(A)``.  The
    dense route draws nothing: ``seed`` is kept for callers that pass it
    and is not read.  Every vector is re-verified by one SpMV on A^T.
    """
    if count < 0:
        raise PreconditionError("count must be >= 0")
    if max(A.n_rows, A.n_cols) > DENSE_CAP:
        raise SizeCapError(
            f"dense kernel check capped at {DENSE_CAP}, got a {A.n_rows}x{A.n_cols} matrix"
        )
    At = csr_transpose(A)
    vectors = dense_right_nullspace(At.to_dense(), A.modulus)
    for v in vectors:
        if (spmv(At, v) != 0).any():
            raise PropertyViolationError("left kernel candidate fails v^T A = 0")
    return KernelBasis(vectors, len(vectors), ())
