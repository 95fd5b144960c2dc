"""Batch compilation: from selected reduction targets to a static sparse plan.

The compiler turns a batch's critical pairs (lcm, i, j) into three outputs:

- a sorted monomial dictionary (the matrix column space),
- a row table of shifted reducers (t_i, g_{k_i}) in a deterministic order:
  one int64 matrix (``RowMeta``) with a row per matrix row,
- a write-once sparse layout plan: row_ptr / col_ind / val / dict_keys /
  row_meta, from which the batch matrix materializes directly.

The pipeline is the canonical two-pass scheme: count row sizes, prefix-sum
the write plan, fill flat key/value streams, canonicalize the dictionary by
sort + unique, then join every row segment against the dictionary to
produce column indices.  Optionally the dictionary is closed under one-step
reductions: any dictionary monomial divisible by a basis leading monomial
gains a reducer row, iterated to a fixed point over a frontier, one round
at a time.  Round 0 is the batch's rows: their sorted unique keys are the
dictionary, and its frontier is the keys no row leads.  Round k >= 1 is the
reducer rows of round k - 1's frontier; their keys are sorted and
deduplicated once, looked up once, and the ones the dictionary lacks are
inserted in place and become the next frontier.

The keys a batch sorts and joins are of one of two kinds.  A batch at one
lane whose key fits one int64 word, lex included, uses one order key per
monomial (``_WordKeys``): narrow lanes in the packed key's layout, built as
a basis term's key plus the row's shift key, a word addition, so the
batch's exponent array is never built.  The closure reads the frontier's
exponents straight off those lanes, and packed keys are built once, for
the dictionary.  A lex closure round that would pass its lanes sends the
batch back to the start on packed keys.  Every other batch (wider keys,
more lanes) packs each shifted term into 16-bit lanes (``_PackedKeys``) and
sorts and joins with ``bulk``.  Both give the same plan bytes.

Everything is deterministic: S-half rows are ordered by (provenance, shift
key, basis index), closure rows append in discovery-round order, and
all bulk steps are schedule-independent.  Compiling the same batch with any
worker-lane count yields byte-identical plans; at more than one lane the
batch takes the packed keys and ``bulk``'s lane-split route, so that
comparison checks the one-word key as well.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from .bulk import (
    DEFAULT_POLICY,
    ExecPolicy,
    exclusive_scan,
    lower_bound,
    merge_join_index,
    radix_sort,
    segment_defects,
    unique_sorted,
)
from .errors import (
    DivisionError,
    MissingKeyError,
    PropertyViolationError,
    SizeCapError,
    UncoverableTargetError,
)
from .monomials import Ring, first_divisor, key_cmp_rows, key_pack_vec, key_unpack_vec, order_columns
from .polynomials import Poly, SoaPolySet

DICT_CAP = 10**6
# keys a batch may materialize (M), checked before any key is gathered
KEY_CAP = 1 << 23


class RowRole(enum.Enum):
    SPOLY_HALF = 0
    REDUCER = 1


class Closure(enum.Enum):
    SUPPORT_ONLY = "support_only"
    ONE_STEP_REDUCTION = "one_step_reduction"


class RowMeta:
    """The shifted reducers of a batch as the rows of one int64 matrix.

    Columns: role (a ``RowRole`` value), provenance (the pair's position in
    the batch for S-halves, the discovery round for closure rows), basis
    index, then the shift's exponents.  Row i describes matrix row i, the
    basis member ``basis_index[i]`` times the monomial ``shift[i]``.  The
    properties are column views.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    @classmethod
    def of(cls, role, provenance, basis_index, shift: np.ndarray) -> "RowMeta":
        rows = np.empty((len(shift), shift.shape[1] + 3), dtype=np.int64)
        rows[:, 0] = role
        rows[:, 1] = provenance
        rows[:, 2] = basis_index
        rows[:, 3:] = shift
        return cls(rows)

    def __len__(self):
        return len(self.rows)

    @property
    def role(self) -> np.ndarray:
        return self.rows[:, 0]

    @property
    def provenance(self) -> np.ndarray:
        return self.rows[:, 1]

    @property
    def basis_index(self) -> np.ndarray:
        return self.rows[:, 2]

    @property
    def shift(self) -> np.ndarray:
        return self.rows[:, 3:]


@dataclass
class PlanCounters:
    r: int = 0
    N: int = 0
    M: int = 0
    nnz: int = 0
    closure_rounds: int = 0
    keys_emitted: int = 0
    # always equal to keys_emitted: compile_batch adds the same len(keys) to
    # both, since every generated key is emitted into the plan; kept
    # because the counter-fidelity acceptance test reads it and plan_to_text
    # dumps it, so it is part of every plan digest
    keys_generated_total: int = 0


@dataclass
class LayoutPlan:
    """Write-once sparse plan for one batch matrix.

    Columns are indexed against ``dict_keys`` stored in descending term
    order (column 0 is the greatest monomial), so column indices ascend
    within each row segment.
    """

    ring: Ring
    row_ptr: np.ndarray  # (r+1,) int64 exclusive prefix of row lengths
    col_ind: np.ndarray  # (M,) int64
    val: np.ndarray  # (M,) uint64, all nonzero
    dict_keys: np.ndarray  # (N, W) uint64, strictly descending
    row_meta: RowMeta  # role, provenance, basis index and shift of every row
    counters: PlanCounters = field(default_factory=PlanCounters)
    timings_ns: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.row_ptr) - 1

    @property
    def n_cols(self) -> int:
        return len(self.dict_keys)

    def validate(self):
        """Structural invariants; raises PropertyViolationError on any failure.

        Checks the race-freedom partition (row segments tile [0, M)), strict
        column ascent per segment, nonzero values, descending dictionary,
        and counter consistency.
        """
        c = self.counters
        ok = self.row_ptr[0] == 0 and self.row_ptr[-1] == len(self.col_ind) == len(self.val)
        if not ok:
            raise PropertyViolationError("row_ptr does not tile the value stream")
        if (self.row_ptr[1:] < self.row_ptr[:-1]).any():
            raise PropertyViolationError("negative row segment length")
        if len(self.row_meta) != self.n_rows:
            raise PropertyViolationError("row_meta length mismatch")
        empty, unordered, outside = segment_defects(self.row_ptr, self.col_ind, self.n_cols)
        bad = empty | unordered | outside
        if bad.any():
            i = int(np.argmax(bad))
            if empty[i]:
                raise PropertyViolationError(f"empty row {i} (basis members are nonzero)")
            if unordered[i]:
                raise PropertyViolationError(f"row {i} columns not strictly ascending")
            raise PropertyViolationError(f"row {i} column out of range")
        if len(self.val) and (self.val == 0).any():
            raise PropertyViolationError("zero value stored in plan")
        if len(self.dict_keys) > 1:
            if not (key_cmp_rows(self.dict_keys[:-1], self.dict_keys[1:]) == 1).all():
                raise PropertyViolationError("dictionary keys not strictly descending")
        if not (
            c.r == self.n_rows
            and c.N == self.n_cols
            and c.M == int(self.row_ptr[-1])
            and c.nnz == c.M
            and c.keys_emitted == c.M
            and c.keys_generated_total >= c.M
        ):
            raise PropertyViolationError(f"counters inconsistent: {c}")


def select_rows(lcm, i, j, basis: SoaPolySet) -> RowMeta:
    """Expand each pair (lcm, i, j) into its two shifted halves, in row order.

    Pair t is the provenance of its halves.  Rows are ordered by
    (provenance, shift key, basis index); every row is an S-half, so the
    role is constant.  A pair that references a basis index outside the
    basis is an error, as is an lcm that a lead does not divide.
    """
    ring = basis.ring
    lcm = np.asarray(lcm, dtype=np.int64).reshape(-1, ring.n_vars)
    k = np.empty(2 * len(lcm), dtype=np.int64)
    k[0::2] = i
    k[1::2] = j
    bad = (k < 0) | (k >= len(basis))
    if bad.any():
        pair = int(np.argmax(bad)) // 2
        raise UncoverableTargetError(f"pair {pair} references unknown basis index")
    pid = np.arange(len(k)) // 2
    shift = np.repeat(lcm, 2, axis=0) - basis.exps[basis.offset[k]]
    short = (shift < 0).any(axis=1)
    if short.any():
        raise DivisionError(f"pair {int(np.argmax(short)) // 2}: a lead does not divide the lcm")
    # lexsort's last key is the primary one
    order = np.lexsort((k, *order_columns(shift, ring), pid))
    return RowMeta.of(RowRole.SPOLY_HALF.value, pid[order], k[order], shift[order])


def _gather(rows: RowMeta, basis: SoaPolySet, policy: ExecPolicy, emitted: int):
    """Pass 1: per-row lengths, their prefix plan, and each key's basis term.

    Raises SizeCapError before anything is gathered when the batch's key
    count so far, ``emitted``, plus these rows' keys would pass KEY_CAP.
    """
    ks = rows.basis_index
    lens = (basis.offset[1:] - basis.offset[:-1])[ks]
    if (lens < 1).any():
        raise PropertyViolationError("zero polynomial referenced as a reducer")
    off = exclusive_scan(lens, policy)
    total = int(off[-1])
    if emitted + total > KEY_CAP:
        raise SizeCapError(f"batch key volume M = {emitted + total} exceeds {KEY_CAP} keys")
    gather = np.repeat(basis.offset[ks] - off[:-1], lens) + np.arange(total, dtype=np.int64)
    return lens, off, gather


def _materialize(rows: RowMeta, basis: SoaPolySet, policy: ExecPolicy, emitted: int = 0):
    """Pass 1 + pass 2: per-row lengths, prefix plan, flat shifted streams.

    Returns (lens, keys, vals, lead_keys) where keys are packed and descend
    within each segment (shifting preserves the stored term order).
    ``emitted`` is the batch's key count so far: pass 1 raises SizeCapError
    before pass 2 when the running count would pass KEY_CAP.
    """
    lens, off, gather = _gather(rows, basis, policy, emitted)
    exps = basis.exps[gather] + np.repeat(rows.shift, lens, axis=0)
    keys = key_pack_vec(exps, basis.ring)
    return lens, keys, basis.coeff[gather], keys[off[:-1]]


class _PackedKeys:
    """Monomials as packed keys, one (W,) uint64 row each, sorted and joined by ``bulk``.

    The route of batches the one-word key does not fit and of every batch
    at more than one lane, where ``bulk``'s lane-split route is the
    determinism oracle.  A shift that overflows a lane raises
    LaneOverflowError in ``key_pack_vec``, so every row fits here.
    """

    def __init__(self, ring: Ring, policy: ExecPolicy):
        self.ring, self.policy = ring, policy

    def fits(self, rows: RowMeta) -> bool:
        # a lane overflow raises in ``materialize`` instead
        return True

    def materialize(self, rows: RowMeta, basis: SoaPolySet, emitted: int):
        return _materialize(rows, basis, self.policy, emitted)

    def unique(self, keys: np.ndarray) -> np.ndarray:
        return unique_sorted(radix_sort(keys, self.policy)[0], self.policy, check=False)[0]

    def search(self, sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
        return lower_bound(sorted_keys, queries)

    def join(self, keys: np.ndarray, dict_asc: np.ndarray) -> np.ndarray:
        return merge_join_index(keys, dict_asc, self.policy, check=False)

    def exponents(self, keys: np.ndarray) -> np.ndarray:
        return key_unpack_vec(keys, self.ring)

    def packed(self, keys: np.ndarray) -> np.ndarray:
        return keys


class _WordKeys:
    """Monomials of one batch at one lane as one int64 order key each.

    The key is ``exps @ w + c``: under a graded order a b-bit degree lane,
    then n b-bit lanes holding what the packed key's 16-bit lanes hold,
    (2^b - 1) - e in reversed variable order under grevlex and e under
    deglex and lex; lex has no degree lane.  While every lane's value is
    below 2^b it orders exactly like the packed key.  It is additive, so a
    shifted term's key is its basis term's key plus ``shift @ w``, and no
    exponent array of the batch is built.  The closure reads its frontier's
    exponents straight off the lanes; packed keys are built only for the
    dictionary.
    """

    def __init__(self, basis: SoaPolySet, b: int):
        ring = basis.ring
        n = ring.n_vars
        self.ring, self.b, self.mask = ring, b, (1 << b) - 1
        # shift of lane j, most significant first
        self.lane_shift = b * np.arange(n - 1, -1, -1, dtype=np.int64)
        degree = 1 << (n * b) if ring.graded else 0
        if ring.order == "grevlex":
            # variable i sits, complemented, in lane n - 1 - i at shift b * i
            self.w = degree - (1 << self.lane_shift[::-1])
            self.c = degree - 1
        else:
            self.w = degree + (1 << self.lane_shift)
            self.c = 0
        self.term_key = basis.exps @ self.w
        # lex: each member's largest exponent of every variable, which a
        # row's shift must keep within its lanes (graded batches are bounded
        # by their degree lane in ``fit``)
        self.member_top = None
        if not ring.graded:
            self.member_top = np.maximum.reduceat(basis.exps, basis.offset[:-1], axis=0)

    @classmethod
    def fit(cls, rows: RowMeta, basis: SoaPolySet, policy: ExecPolicy) -> "_WordKeys | None":
        """The batch's word keys, or None where the packed keys must decide.

        In a graded ring a member's lead carries its largest degree, and a
        closure row leads at a monomial already present, so no monomial of
        the batch passes D = max(lead degree + shift degree) over the given
        rows.  Lanes of b = bit_length(D) bits then never overflow.  Lex
        lanes are b = min(16, 63 // n) bits wide, and the given rows fit
        when every member's largest exponent of each variable plus the row's
        shift stays below 2^b; ``fits`` checks each closure round the same
        way.  Every other batch keeps the packed keys: graded D >= 2^16
        (where ``key_pack_vec`` decides on lane overflow), b * (n + 1) > 63,
        lex rows past their lanes, negative shifts, bad or empty basis
        members, and ``lanes > 1``.
        """
        ring = basis.ring
        ks = rows.basis_index
        if policy.lanes > 1 or len(rows) == 0:
            return None
        if ks.min() < 0 or ks.max() >= len(basis) or rows.shift.min() < 0:
            return None
        if (basis.offset[1:] <= basis.offset[:-1]).any():
            return None
        if not ring.graded:
            keys = cls(basis, min(16, 63 // ring.n_vars))
            return keys if keys.fits(rows) else None
        top = basis.exps[basis.offset[ks]].sum(axis=1) + rows.shift.sum(axis=1)
        b = max(1, int(top.max()).bit_length())
        if b > 16 or b * (ring.n_vars + 1) > 63:
            return None
        return cls(basis, b)

    def fits(self, rows: RowMeta) -> bool:
        """Whether every term of these rows keeps each exponent within its lane."""
        if self.member_top is None:
            return True
        return int((self.member_top[rows.basis_index] + rows.shift).max()) <= self.mask

    def materialize(self, rows: RowMeta, basis: SoaPolySet, emitted: int):
        lens, off, gather = _gather(rows, basis, DEFAULT_POLICY, emitted)
        keys = self.term_key[gather] + np.repeat(rows.shift @ self.w + self.c, lens)
        return lens, keys, basis.coeff[gather], keys[off[:-1]]

    def unique(self, keys: np.ndarray) -> np.ndarray:
        # a sort and a mask: numpy 2's np.unique hashes first and is several
        # times slower on a few hundred thousand keys
        keys = np.sort(keys)
        new = np.empty(len(keys), dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        return keys[new]

    def search(self, sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
        return np.searchsorted(sorted_keys, queries)

    def join(self, keys: np.ndarray, dict_asc: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(dict_asc, keys)
        hit = dict_asc[np.minimum(pos, len(dict_asc) - 1)] == keys
        if not hit.all():
            i = int(np.argmin(hit))
            key = tuple(self.packed(keys[i : i + 1])[0].tolist())
            raise MissingKeyError(f"key {key} absent from dictionary")
        return pos

    def exponents(self, keys: np.ndarray) -> np.ndarray:
        """The (N, n_vars) int64 exponent rows of these keys, read off their lanes."""
        lanes = (keys[:, None] >> self.lane_shift) & self.mask
        if self.ring.order == "grevlex":
            return self.mask - lanes[:, ::-1]
        return lanes

    def packed(self, keys: np.ndarray) -> np.ndarray:
        return key_pack_vec(self.exponents(keys), self.ring)


def _reducer_preference(basis: SoaPolySet) -> np.ndarray:
    """Closure reducer order: smallest leading monomial first, then lowest index."""
    return np.lexsort(order_columns(basis.exps[basis.offset[:-1]], basis.ring))


def closure_expand(
    keys_desc: np.ndarray,
    basis: SoaPolySet,
    round_id: int = 1,
    pref: np.ndarray | None = None,
    exps: np.ndarray | None = None,
) -> RowMeta:
    """One round of one-step reduction closure over a frontier of monomials.

    For every given monomial (keys in descending order) pick the preferred
    basis divisor (smallest leading monomial, then lowest index) and emit
    the reducer row whose lead is exactly that monomial, in ascending key
    order.  The caller passes only monomials that no row leads yet: round
    0's keys that none of its rows leads, and afterwards the monomials the
    previous round's rows added.  The rows are empty when none has a divisor.

    The search is one ``first_divisor`` call against the leads in that order.
    ``pref`` is that order, ``_reducer_preference(basis)``, computed here
    unless the caller passes it.  Without ``exps`` the keys are packed keys
    and are unpacked here.  With ``exps``, the exponent rows of the given
    monomials in the same order, the keys are only counted, so they may be
    of any kind: ``compile_batch`` passes each keyer's own keys with the
    exponents it reads off them.
    """
    if len(keys_desc) == 0 or len(basis) == 0:
        return RowMeta(np.zeros((0, basis.ring.n_vars + 3), dtype=np.int64))
    if exps is None:
        exps = key_unpack_vec(keys_desc, basis.ring)
    if pref is None:
        pref = _reducer_preference(basis)
    first = first_divisor(basis.exps[basis.offset[pref]], exps)
    hit = np.flatnonzero(first >= 0)[::-1]
    ks = pref[first[hit]]
    shifts = exps[hit] - basis.exps[basis.offset[ks]]
    return RowMeta.of(RowRole.REDUCER.value, round_id, ks, shifts)


def _insert_sorted(dict_asc: np.ndarray, at: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``dict_asc`` with ``new[j]`` placed before its entry ``at[j]``; both ascend.

    What ``np.insert`` does along axis 0, without its argument handling,
    which costs more than the copy on a batch's few hundred keys.
    """
    out = np.empty((len(dict_asc) + len(new),) + dict_asc.shape[1:], dtype=dict_asc.dtype)
    slot = at + np.arange(len(new))
    old = np.ones(len(out), dtype=bool)
    old[slot] = False
    out[slot] = new
    out[old] = dict_asc
    return out


def _closed_dictionary(rows: RowMeta, basis: SoaPolySet, closure: Closure, keyer):
    """The rounds of ``compile_batch`` on one kind of key.

    Returns (parts, dict_asc, counters): each round's rows, row lengths,
    keys and values, the ascending dictionary, and the counters so far.
    Returns None when a closure round's rows do not fit the keyer's lanes;
    the caller then starts again on packed keys.
    """
    counters = PlanCounters()
    parts, dict_asc, pref = [], None, None
    while True:
        lens, keys, vals, lead_keys = keyer.materialize(rows, basis, counters.keys_emitted)
        counters.keys_emitted += len(keys)
        counters.keys_generated_total += len(keys)
        parts.append((rows.rows, lens, keys, vals))
        uniq = keyer.unique(keys)
        if dict_asc is None:
            # round 0's keys are the dictionary; its frontier is what no row leads
            dict_asc = uniq
            uncovered = np.ones(len(uniq), dtype=bool)
            uncovered[keyer.search(uniq, lead_keys)] = False
            frontier = uniq[uncovered]
        else:
            pos = keyer.search(dict_asc, uniq)
            present = pos < len(dict_asc)
            same = dict_asc[pos[present]] == uniq[present]
            present[present] = same.all(axis=1) if same.ndim > 1 else same
            frontier = uniq[~present]
            dict_asc = _insert_sorted(dict_asc, pos[~present], frontier)
            if len(dict_asc) > DICT_CAP:
                raise SizeCapError(
                    f"dictionary exceeded {DICT_CAP} entries after "
                    f"{counters.closure_rounds} closure rounds"
                )
        if closure is not Closure.ONE_STEP_REDUCTION:
            break
        if pref is None and len(frontier) and len(basis):
            # the basis is fixed within a batch: one reducer order for every round
            pref = _reducer_preference(basis)
        frontier = frontier[::-1]
        exps = keyer.exponents(frontier) if len(frontier) else None
        rows = closure_expand(frontier, basis, counters.closure_rounds + 1, pref, exps)
        if not rows:
            break
        if not keyer.fits(rows):
            return None
        counters.closure_rounds += 1
    return parts, dict_asc, counters


def compile_batch(
    rows: RowMeta,
    basis: SoaPolySet,
    closure: Closure = Closure.ONE_STEP_REDUCTION,
    policy: ExecPolicy = DEFAULT_POLICY,
) -> LayoutPlan:
    """Compile a row table into a layout plan.

    ``rows`` must already be in the deterministic order produced by
    select_rows (an empty table may be a plain list); closure rows are
    appended per discovery round.  KEY_CAP bounds the keys of all rounds
    together, and DICT_CAP the dictionary after each closure round.  A
    batch on word keys whose closure reaches past their lanes is compiled
    again from the start on packed keys, which raise LaneOverflowError
    where a key does not fit them.  The output is byte-identical for any
    ExecPolicy.
    """
    ring = basis.ring
    timings = {}
    given = np.asarray(getattr(rows, "rows", rows), dtype=np.int64)
    rows = RowMeta(given.reshape(-1, ring.n_vars + 3))

    # round 0 is the given rows; round k >= 1 is the closure rows of the
    # monomials round k - 1 added, which no row can lead because every
    # closure row leads at a monomial already present
    t0 = time.monotonic_ns()
    keyer = _WordKeys.fit(rows, basis, policy)
    built = keyer and _closed_dictionary(rows, basis, closure, keyer)
    if not built:
        keyer = _PackedKeys(ring, policy)
        built = _closed_dictionary(rows, basis, closure, keyer)
    parts, dict_asc, counters = built
    dict_desc = np.ascontiguousarray(keyer.packed(dict_asc[::-1]))
    timings["dict_build_ns"] = time.monotonic_ns() - t0

    t1 = time.monotonic_ns()
    table, all_lens, flat_keys, flat_vals = (np.concatenate(p) for p in zip(*parts))
    row_meta = RowMeta(table)
    row_ptr = exclusive_scan(all_lens, policy)
    n_dict = len(dict_asc)
    # dictionary join over the flat stream (sorted within each row segment);
    # any miss is a closure defect, not an input error
    col_ind = (n_dict - 1) - keyer.join(flat_keys, dict_asc)
    counters.r = len(row_meta)
    counters.N = n_dict
    counters.M = int(row_ptr[-1])
    counters.nnz = counters.M
    timings["row_assemble_ns"] = time.monotonic_ns() - t1

    plan = LayoutPlan(ring, row_ptr, col_ind, flat_vals, dict_desc, row_meta, counters, timings)
    plan.validate()
    return plan


def decode_row(plan: LayoutPlan, i: int) -> Poly:
    """Rebuild row i as an exact polynomial from the plan arrays."""
    if not 0 <= i < plan.n_rows:
        raise IndexError(f"row {i} out of range")
    s, e = int(plan.row_ptr[i]), int(plan.row_ptr[i + 1])
    cols = plan.col_ind[s:e]
    exps = key_unpack_vec(plan.dict_keys[cols], plan.ring)
    return Poly(plan.ring, tuple(zip(map(tuple, exps.tolist()), plan.val[s:e].tolist())))


def row_lead_cols(plan: LayoutPlan) -> np.ndarray:
    """Leading (first) column of every row."""
    if plan.n_rows == 0:
        return np.zeros(0, dtype=np.int64)
    return plan.col_ind[plan.row_ptr[:-1]]


def plan_to_text(plan: LayoutPlan) -> str:
    """Self-describing textual dump: one line per array, decimal values."""
    c = plan.counters
    meta = plan.row_meta
    # each row's entry reads shift..., basis index, role, provenance
    meta_cols = np.column_stack([meta.shift, meta.basis_index, meta.role, meta.provenance])
    lines = [
        "fpgb-plan v1",
        f"p {plan.ring.modulus.p}",
        f"order {plan.ring.order}",
        "vars " + " ".join(plan.ring.var_names),
        f"counters r={c.r} N={c.N} M={c.M} nnz={c.nnz} closure_rounds={c.closure_rounds} "
        f"keys_emitted={c.keys_emitted} keys_generated_total={c.keys_generated_total}",
        "row_ptr " + " ".join(str(int(x)) for x in plan.row_ptr),
        "col_ind " + " ".join(str(int(x)) for x in plan.col_ind),
        "val " + " ".join(str(int(x)) for x in plan.val),
        "dict_keys " + " ".join(str(int(w)) for w in plan.dict_keys.ravel()),
        "row_meta "
        + " ".join(",".join(map(str, r)) for r in meta_cols.tolist()),
    ]
    return "\n".join(lines) + "\n"
