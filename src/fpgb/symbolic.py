"""Batch compilation: from selected reduction targets to a static sparse plan.

The compiler turns a batch specification (pair targets) into three outputs:

- a sorted monomial dictionary (the matrix column space),
- a deterministic row list of shifted reducers (t_i, g_{k_i}),
- a write-once sparse layout plan: row_ptr / col_ind / val / dict_keys /
  row_meta, from which the batch matrix materializes directly.

The pipeline is the canonical two-pass scheme: count row sizes, prefix-sum
the write plan, fill flat key/value streams, canonicalize the dictionary by
radix sort + unique, then join every row segment against the dictionary to
produce column indices.  Optionally the dictionary is closed under one-step
reductions: any dictionary monomial divisible by a basis leading monomial
gains a reducer row, iterated to a fixed point over a frontier.  Round 1
scans the monomials no row leads; each later round scans only the monomials
the previous round's rows added, which are sorted and deduplicated once,
looked up once and inserted into the dictionary in place.

Everything is deterministic: row order is fixed by (role, provenance,
shift key, basis index), closure rows append in discovery-round order, and
all bulk steps are schedule-independent.  Compiling the same batch with any
worker-lane count yields byte-identical plans.
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
from .errors import PropertyViolationError, SizeCapError, UncoverableTargetError
from .monomials import Ring, key_cmp_rows, key_pack_vec, key_unpack_vec, mon_div, mon_key_pack
from .polynomials import Poly, SoaPolySet

DICT_CAP = 10**6
# entries of one frontier x leads x n_vars divisibility temporary
_DIVISOR_MASK_CELLS = 1 << 20


class RowRole(enum.Enum):
    SPOLY_HALF = 0
    REDUCER = 1


class Closure(enum.Enum):
    SUPPORT_ONLY = "support_only"
    ONE_STEP_REDUCTION = "one_step_reduction"


@dataclass(frozen=True)
class Row:
    """One shifted reducer: shift monomial, basis index, origin bookkeeping."""

    shift: tuple
    basis_index: int
    role: RowRole
    provenance: int  # pair id for S-halves, discovery round for closure rows


@dataclass(frozen=True)
class PairTarget:
    """A critical-pair target: the lcm plus the pair it came from."""

    lcm: tuple
    pair_id: int
    fi: int
    gi: int


@dataclass
class BatchSpec:
    """Inputs to symbolic preprocessing: the pair targets of one batch."""

    targets: list


@dataclass
class PlanCounters:
    r: int = 0
    N: int = 0
    M: int = 0
    nnz: int = 0
    closure_rounds: int = 0
    keys_emitted: int = 0
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
    row_meta: tuple  # Row per matrix row
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
        seg_len = np.diff(self.row_ptr)
        if (seg_len < 0).any():
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


def row_sort_key(row: Row, ring: Ring):
    return (row.role.value, row.provenance, mon_key_pack(row.shift, ring), row.basis_index)


def select_rows(spec: BatchSpec, basis: SoaPolySet) -> list:
    """Expand each pair target into its two shifted halves, in row order.

    A target that references a basis index outside the basis is an error.
    """
    ring = basis.ring
    n_basis = len(basis)
    rows = []
    for tgt in spec.targets:
        if not (0 <= tgt.fi < n_basis and 0 <= tgt.gi < n_basis):
            raise UncoverableTargetError(f"pair {tgt.pair_id} references unknown basis index")
        for k in (tgt.fi, tgt.gi):
            lead = tuple(int(x) for x in basis.exps[int(basis.offset[k])])
            rows.append(Row(mon_div(tgt.lcm, lead), k, RowRole.SPOLY_HALF, tgt.pair_id))
    rows.sort(key=lambda r: row_sort_key(r, ring))
    return rows


def _materialize(rows, basis: SoaPolySet, policy: ExecPolicy):
    """Pass 1 + pass 2: per-row lengths, prefix plan, flat shifted streams.

    Returns (lens, keys, vals, lead_keys) where keys descend within each
    segment (shifting preserves the stored term order).
    """
    ring = basis.ring
    ks = np.array([r.basis_index for r in rows], dtype=np.int64)
    shifts = np.array([r.shift for r in rows], dtype=np.int64).reshape(len(rows), ring.n_vars)
    lens = basis.length[ks]
    if (lens < 1).any():
        raise PropertyViolationError("zero polynomial referenced as a reducer")
    off = exclusive_scan(lens, policy)
    total = int(off[-1])
    gather = np.repeat(basis.offset[ks], lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(off[:-1], lens)
    )
    exps = basis.exps[gather] + np.repeat(shifts, lens, axis=0)
    keys = key_pack_vec(exps, ring)
    vals = basis.coeff[gather].copy()
    lead_keys = keys[off[:-1]]
    return lens, keys, vals, lead_keys


def _reducer_preference(basis: SoaPolySet) -> np.ndarray:
    """Closure reducer order: smallest leading monomial first, then lowest index."""
    leads = basis.mon_key[basis.offset[:-1]]
    return np.lexsort(leads.T[::-1])


def closure_expand(keys_desc: np.ndarray, basis: SoaPolySet, round_id: int = 1) -> list:
    """One round of one-step reduction closure over a frontier of monomials.

    For every given monomial (keys in descending order) pick the preferred
    basis divisor (smallest leading monomial, then lowest index) and emit
    the reducer row whose lead is exactly that monomial, in ascending key
    order.  The caller passes only monomials that no row leads yet: the
    uncovered dictionary in round 1, and afterwards the monomials the
    previous round's rows added.  Returns [] when none has a divisor.

    The search is one divisibility mask per chunk of the frontier against
    all leads in preference order; the first hit of each row is its reducer.
    """
    if len(keys_desc) == 0 or len(basis) == 0:
        return []
    exps = key_unpack_vec(keys_desc, basis.ring)
    pref = _reducer_preference(basis)
    leads = basis.exps[basis.offset[pref]]
    reducer = np.full(len(exps), -1, dtype=np.int64)
    step = max(1, _DIVISOR_MASK_CELLS // leads.size)
    for s in range(0, len(exps), step):
        divides = (exps[s : s + step, None, :] >= leads[None, :, :]).all(axis=2)
        reducer[s : s + step] = np.where(divides.any(axis=1), pref[divides.argmax(axis=1)], -1)
    hit = np.flatnonzero(reducer >= 0)[::-1]
    ks = reducer[hit]
    shifts = exps[hit] - basis.exps[basis.offset[ks]]
    return [
        Row(tuple(shift), k, RowRole.REDUCER, round_id)
        for shift, k in zip(shifts.tolist(), ks.tolist())
    ]


def compile_batch(
    rows,
    basis: SoaPolySet,
    closure: Closure = Closure.ONE_STEP_REDUCTION,
    policy: ExecPolicy = DEFAULT_POLICY,
) -> LayoutPlan:
    """Compile a deterministic row list into a layout plan.

    ``rows`` must already be in the deterministic order produced by
    select_rows; closure rows are appended per discovery round.  The output
    is byte-identical for any ExecPolicy.
    """
    ring = basis.ring
    rows = list(rows)
    counters = PlanCounters()
    timings = {"dict_build_ns": 0, "row_assemble_ns": 0}
    if not rows:
        plan = LayoutPlan(
            ring,
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.uint64),
            np.zeros((0, ring.n_key_words), dtype=np.uint64),
            (),
            counters,
            {"dict_build_ns": 0, "row_assemble_ns": 0},
        )
        plan.validate()
        return plan

    t0 = time.monotonic_ns()
    lens, keys, vals, lead_keys = _materialize(rows, basis, policy)
    len_parts, key_parts, val_parts = [lens], [keys], [vals]
    counters.keys_emitted += len(keys)
    counters.keys_generated_total += len(keys)
    dict_asc, _ = unique_sorted(radix_sort(keys, policy)[0], policy, check=False)

    if closure is Closure.ONE_STEP_REDUCTION:
        # the frontier: round 1 scans the monomials no row leads; later rounds
        # scan only what the previous round added, which no row can lead
        # because every closure row leads at a monomial already present
        uncovered = np.ones(len(dict_asc), dtype=bool)
        uncovered[lower_bound(dict_asc, lead_keys)] = False
        frontier = dict_asc[uncovered]
        while True:
            new_rows = closure_expand(frontier[::-1], basis, counters.closure_rounds + 1)
            if not new_rows:
                break
            counters.closure_rounds += 1
            rows.extend(new_rows)
            nlens, nkeys, nvals, _ = _materialize(new_rows, basis, policy)
            counters.keys_emitted += len(nkeys)
            counters.keys_generated_total += len(nkeys)
            len_parts.append(nlens)
            key_parts.append(nkeys)
            val_parts.append(nvals)
            nuniq, _ = unique_sorted(radix_sort(nkeys, policy)[0], policy, check=False)
            pos = lower_bound(dict_asc, nuniq)
            present = pos < len(dict_asc)
            present[present] = (dict_asc[pos[present]] == nuniq[present]).all(axis=1)
            frontier = nuniq[~present]
            dict_asc = np.insert(dict_asc, pos[~present], frontier, axis=0)
            if len(dict_asc) > DICT_CAP:
                raise SizeCapError(
                    f"dictionary exceeded {DICT_CAP} entries after "
                    f"{counters.closure_rounds} closure rounds"
                )
    timings["dict_build_ns"] = time.monotonic_ns() - t0

    t1 = time.monotonic_ns()
    all_lens = np.concatenate(len_parts)
    flat_keys = np.vstack(key_parts)
    flat_vals = np.concatenate(val_parts)
    row_ptr = exclusive_scan(all_lens, policy)
    n_dict = len(dict_asc)
    # dictionary join over the flat stream (sorted within each row segment);
    # any miss is a closure defect, not an input error
    col_asc = merge_join_index(flat_keys, dict_asc, policy, check=False)
    col_ind = (n_dict - 1) - col_asc
    dict_desc = dict_asc[::-1].copy()
    counters.r = len(rows)
    counters.N = n_dict
    counters.M = int(row_ptr[-1])
    counters.nnz = counters.M
    timings["row_assemble_ns"] = time.monotonic_ns() - t1

    plan = LayoutPlan(
        ring, row_ptr, col_ind, flat_vals, dict_desc, tuple(rows), counters,
        {"dict_build_ns": timings["dict_build_ns"], "row_assemble_ns": timings["row_assemble_ns"]},
    )
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


_HIST_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1 << 62)


def plan_stats(plan: LayoutPlan) -> dict:
    """Shape counters plus a row-length histogram (power-of-two buckets)."""
    lens = np.diff(plan.row_ptr)
    hist = {}
    lo = 0
    for b in _HIST_BUCKETS:
        n = int(((lens > lo) & (lens <= b)).sum())
        if n:
            label = f"<={b}" if b < (1 << 62) else f">{lo}"
            hist[label] = n
        lo = b
    c = plan.counters
    return {
        "r": c.r,
        "N": c.N,
        "M": c.M,
        "nnz": c.nnz,
        "closure_rounds": c.closure_rounds,
        "keys_emitted": c.keys_emitted,
        "keys_generated_total": c.keys_generated_total,
        "row_length_histogram": hist,
    }


def plan_to_text(plan: LayoutPlan) -> str:
    """Self-describing textual dump: one line per array, decimal values."""
    c = plan.counters
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
        + " ".join(
            ",".join(
                [str(e) for e in r.shift] + [str(r.basis_index), str(r.role.value), str(r.provenance)]
            )
            for r in plan.row_meta
        ),
    ]
    return "\n".join(lines) + "\n"


def plan_digest(plan: LayoutPlan) -> str:
    import hashlib

    return hashlib.sha256(plan_to_text(plan).encode()).hexdigest()
