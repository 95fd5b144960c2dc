"""Groebner bases over F_p: an F4-style batched driver and a scalar oracle.

The F4 path runs: select the minimal-degree critical pairs, expand them into
shifted reducer rows, compile the batch into a sparse plan (with one-step
reduction closure), eliminate with the known-pivot engine, and harvest
reduced rows whose leading columns are new.  ``f4_step`` is one batch and
``f4_groebner`` is the only loop over batches; the pipeline runner, the
invariant verifier and the tests observe its batches through ``on_batch``.
The driver keeps its basis once, as one append-only ``SoaPolySet``; ``Poly``
objects are built from it only at the boundaries: the reduced basis it
returns and the scalar oracles' checks.
F4 then interreduces its basis as one more batch through the same engine:
the minimal members as rows, their tail reducers from the closure, and the
fully back-substituted echelon form.
``PipelineConfig`` is the one config type, for F4 runs only, validated when it is built.

The reference path is a textbook Buchberger loop (product and chain
criteria, sugar selection, scalar normal-form reduction) written as plain
tuple code that shares nothing with the batch machinery beyond the
polynomial primitives; it interreduces with scalar normal forms
(``reduce_basis``).  A reduced basis is canonical, so the two drivers must
agree byte for byte, and that check covers both interreductions.
``normal_form`` keeps its work polynomial as a dict with a max-heap of its
monomials, so a reduction step costs the reducer's length, not the work
polynomial's.  ``is_groebner`` skips the pairs that the product and chain
criteria settle, which leaves its verdict unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub

import numpy as np

from .bulk import ExecPolicy, radix_sort
from .errors import (
    ArityMismatchError,
    NonterminationError,
    PreconditionError,
    ProbabilisticFailureError,
    PropertyViolationError,
)
from .fp import FieldModulus, matmul_mod
from .monomials import (
    Ring, _tie_lanes, key_unpack_vec, minimal_rows, mon_div, mon_divides, mon_lcm, mon_mul
)
from .polynomials import (
    Poly,
    SoaPolySet,
    poly_add_scaled,
    poly_from_dict,
    poly_monic,
    poly_mul_mon,
    shift_fits,
    soa_concat,
    soa_pack,
    soa_polys,
)
from .sparselin import (
    BLOCK_BYTES,
    KernelBasis,
    csr_from_plan,
    csr_transpose,
    left_kernel,
    psge_reduce,
    wiedemann_solve,
)
from .symbolic import (
    Closure,
    LayoutPlan,
    RowMeta,
    RowRole,
    _reducer_preference,
    compile_batch,
    row_lead_cols,
    select_rows,
)

MAX_STEPS_DEFAULT = 10_000


def spoly(f: Poly, g: Poly) -> Poly:
    """S(f, g) = (L/LT(f)) f - (L/LT(g)) g for L = lcm of the leading monomials."""
    if f.is_zero() or g.is_zero():
        raise PreconditionError("S-polynomial of a zero polynomial")
    ring = f.ring
    p = ring.modulus.p
    L = mon_lcm(f.lm(), g.lm())
    tf = poly_mul_mon(mon_div(L, f.lm()), f)
    tg = poly_mul_mon(mon_div(L, g.lm()), g)
    inv_f = pow(f.lc(), p - 2, p)
    inv_g = pow(g.lc(), p - 2, p)
    left = Poly(ring, tuple((e, c * inv_f % p) for e, c in tf.terms))
    return poly_add_scaled(left, (p - inv_g) % p, tg)


def _reducer_table(basis: list) -> list:
    """Reduction order: smallest leading monomial first, then lowest index."""
    order = sorted(range(len(basis)), key=lambda i: (basis[i].ring.sort_key(basis[i].lm()), i))
    return [(basis[i].lm(), i) for i in order]


def _reducer_record(g: Poly, p: int) -> tuple:
    """What a reduction step by g reads: the inverse of its lead coefficient,
    the exponents of every term and of the tail, the tail's coefficients,
    and the largest exponent and degree of any term.  ``normal_form``
    builds it the first time g reduces, once per call."""
    exps = [e for e, _ in g.terms]
    tail = [c for _, c in g.terms[1:]]
    return pow(g.lc(), p - 2, p), exps, exps[1:], tail, max(map(max, exps)), max(map(sum, exps))


def normal_form(f: Poly, basis: list) -> Poly:
    """Full remainder of f modulo the basis.

    Deterministic reducer choice matches the batch compiler's closure rule:
    the work polynomial's largest monomial is reduced by the first member in
    ``_reducer_table`` order whose lead divides it.  No monomial of the
    result is divisible by any basis leading monomial.

    The work polynomial is a dict {exponents: coefficient} with a max-heap
    of its monomials by ``ring.sort_key``; a heap entry whose monomial has
    left the dict is stale and skipped.  A step cancels the lead and adds
    the scaled, shifted tail of the reducer, one dict update per tail term,
    and pushes a monomial only when it enters the dict.  So a step costs the
    reducer's length, not the work polynomial's.  The shift is checked once
    per step (``shift_fits``); when it could overflow a lane, every term goes
    through ``mon_mul``, which raises as ``poly_mul_mon`` does.
    """
    live = [g for g in basis if not g.is_zero()]
    if f.is_zero() or not live:
        return f
    ring = f.ring
    p = ring.modulus.p
    n = len(f.lm())
    key = ring.sort_key
    table = _reducer_table(live)
    leads = [lead for lead, _ in table]
    for b, lead in enumerate(leads):
        if len(lead) != n:
            del leads[b:]  # mon_divides raises when the scan reaches this member
            break
    records = {}
    work = dict(f.terms)
    heap = [(tuple(map(neg, key(e))), e) for e in work]
    heapify(heap)
    out = []
    while heap:
        lead = heappop(heap)[1]
        c = work.pop(lead, None)
        if c is None:
            continue  # stale: the monomial left the dict after this entry was pushed
        for k, lm_g in enumerate(leads):
            if all(map(le, lm_g, lead)):
                break
        else:
            if len(leads) < len(live):
                raise ArityMismatchError("arity mismatch in divisibility test")
            out.append((lead, c))
            continue
        rec = records.get(k)
        if rec is None:
            rec = records[k] = _reducer_record(live[table[k][1]], p)
        inv, exps, tail_exps, tail, top, deg = rec
        t = tuple(map(sub, lead, lm_g))
        coef = p - c * inv % p
        if shift_fits(t, n, top, deg):
            mons = [tuple(map(add, t, e)) for e in tail_exps]
        else:
            mons = [mon_mul(t, e) for e in exps][1:]
        for m, a in zip(mons, tail):
            v = work.get(m)
            if v is None:
                work[m] = coef * a % p
                heappush(heap, (tuple(map(neg, key(m))), m))
            else:
                v = (v + coef * a) % p
                if v:
                    work[m] = v
                else:
                    del work[m]
    return Poly(ring, tuple(out))


@dataclass
class BatchStats:
    degree: int
    r: int
    N: int
    M: int
    nnz: int
    rank: int
    new_polys: int
    zero_reductions: int
    closure_rounds: int
    fill_generated: int
    timings_ns: dict


class PairQueue:
    """Critical pairs (i, j), i < j, as the rows of one int64 matrix.

    Columns: the lcm's total degree, the term order's tie lanes of the lcm
    (``monomials._tie_lanes``), i, j, then the lcm's exponents.  The first
    ``n_vars + 3`` columns are the sort key, so one ``np.lexsort`` puts the
    queue in (degree, term order of lcm, i, j) order, and the pairs of
    minimal degree are a prefix.  The properties are column views.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows: np.ndarray, n: int):
        self.rows = rows
        self.n = n

    @classmethod
    def of(cls, i, j, lcm: np.ndarray, deg, ring: Ring) -> "PairQueue":
        n = ring.n_vars
        rows = np.empty((len(lcm), 2 * n + 3), dtype=np.int64)
        rows[:, 0] = deg
        rows[:, 1 : n + 1] = _tie_lanes(lcm, ring)
        rows[:, n + 1] = i
        rows[:, n + 2] = j
        rows[:, n + 3 :] = lcm
        return cls(rows, n)

    def __len__(self):
        return len(self.rows)

    @property
    def deg(self) -> np.ndarray:
        return self.rows[:, 0]

    @property
    def i(self) -> np.ndarray:
        return self.rows[:, self.n + 1]

    @property
    def j(self) -> np.ndarray:
        return self.rows[:, self.n + 2]

    @property
    def lcm(self) -> np.ndarray:
        return self.rows[:, self.n + 3 :]

    def take(self, idx) -> "PairQueue":
        return PairQueue(self.rows[idx], self.n)

    def sorted(self) -> "PairQueue":
        # lexsort's last key is the primary one: deg, tie lanes, i, j reversed
        return self.take(np.lexsort(self.rows[:, self.n + 2 :: -1].T))


@dataclass
class GroebnerState:
    """The F4 driver's state: the ring, the basis as one SoaPolySet, and the pair queue.

    ``update_pairs`` is the only writer of ``basis``.  It appends by
    building a new set with ``soa_concat`` and never changes a set in
    place, so a set read earlier (``on_batch``'s ``basis_before``) keeps
    its members.
    """

    ring: Ring
    basis: SoaPolySet = field(init=False)
    pairs: PairQueue = field(init=False)

    def __post_init__(self):
        self.basis = soa_pack([], self.ring)
        none = np.zeros((0, self.ring.n_vars), dtype=np.int64)
        self.pairs = PairQueue.of([], [], none, [], self.ring)


def _chain_or_repeat(cand: np.ndarray, cdeg: np.ndarray) -> np.ndarray:
    """Which new pairs the chain criterion or an equal-lcm twin removes.

    Pair a goes when some other new pair's lcm properly divides its lcm,
    or an earlier new pair has the same lcm.  Both read "lcm_b divides
    lcm_a and (deg_b, b) < (deg_a, a)", as a divisor of equal degree is
    equal.  So in (degree, index) order the pairs that go are exactly the
    rows that are not minimal; that order is ``bulk``'s stable sort of the
    degrees, one word a pair.
    """
    _, order = radix_sort(cdeg.view(np.uint64).reshape(-1, 1))
    out = np.empty(len(cand), dtype=bool)
    out[order] = ~minimal_rows(cand[order])
    return out


def update_pairs(state: GroebnerState, new: SoaPolySet) -> GroebnerState:
    """Append monic members to the basis with Gebauer-Moller pair pruning.

    The members of ``new`` enter one at a time, in order.  For each, new
    pairs drop by the lcm-divisibility (chain) criterion, keep one per lcm
    (the lowest partner index) and drop by the product criterion; existing
    pairs whose lcm factors through the newcomer's leading monomial drop as
    well.  Each test is one array pass over the leading exponents or the
    queue.
    """
    if (np.diff(new.offset) == 0).any() or (new.coeff[new.offset[:-1]] != 1).any():
        raise PreconditionError("basis members must be monic and nonzero")
    first = len(state.basis)
    state.basis = soa_concat(state.basis, new)
    leads = state.basis.exps[state.basis.offset[:-1]]
    deg = leads.sum(axis=1)
    q = state.pairs
    for t in range(max(first, 1), len(leads)):
        lm = leads[t]
        cand = np.maximum(leads[:t], lm)  # lcm(lead_i, lm) for every member i < t
        cdeg = cand.sum(axis=1)
        if len(q):
            # once lm divides lcm(i, j), so do lcm(lead_i, lm) and lcm(lead_j, lm):
            # they differ from it exactly when their degree is lower
            below = np.maximum(cdeg[q.i], cdeg[q.j]) < q.deg
            q = q.take(~((q.lcm >= lm).all(axis=1) & below))
        # product criterion: coprime leading monomials have lcm degree deg_i + deg_t
        kept = np.flatnonzero(~_chain_or_repeat(cand, cdeg) & (cdeg != deg[:t] + deg[t]))
        if len(kept):
            add = PairQueue.of(kept, t, cand[kept], cdeg[kept], state.ring)
            q = PairQueue(np.concatenate([q.rows, add.rows]), q.n).sorted()
    state.pairs = q
    return state


def select_batch(state: GroebnerState):
    """Normal strategy: pop every queued pair of minimal lcm total degree.

    Returns that prefix of the queue, in queue order, and its degree.
    """
    q = state.pairs
    if not len(q):
        raise PreconditionError("empty pair queue")
    d = int(q.deg[0])
    k = int(np.searchsorted(q.deg, d, side="right"))
    state.pairs = q.take(slice(k, None))
    return q.take(slice(None, k)), d


@dataclass
class PipelineConfig:
    """Every setting of an F4 run; checked once, when it is built.  Oracles take none."""

    numeric: str = "psge"  # psge | wiedemann (psge plus a kernel check per batch)
    seed: int = 0
    workers: int = 1
    max_steps: int = MAX_STEPS_DEFAULT

    def __post_init__(self):
        if self.numeric not in ("psge", "wiedemann"):
            raise PreconditionError(f"unknown numeric engine {self.numeric!r}")
        if self.workers < 1:
            raise PreconditionError("workers must be >= 1")
        if self.max_steps < 0:
            raise PreconditionError("max_steps must be >= 0")


def _decode_rows(plan: LayoutPlan, rows) -> SoaPolySet:
    """An echelon row set as one SoaPolySet, by one key gather and one ``key_unpack_vec``."""
    exps = key_unpack_vec(plan.dict_keys[rows.ind], plan.ring)
    return SoaPolySet(plan.ring, exps, rows.val, rows.ptr)


def _harvest(state: GroebnerState, plan: LayoutPlan, rows) -> int:
    """Add a batch's new echelon rows to the basis; returns how many.

    The rows are monic and ascend by lead column, so in reverse they enter in
    ascending order of their leading monomials, as one ``update_pairs`` call.
    """
    if not len(rows):
        return 0
    update_pairs(state, _decode_rows(plan, rows.take(np.arange(len(rows))[::-1])))
    return len(rows)


def f4_step(state: GroebnerState, config: PipelineConfig | None = None):
    """One batch: select, compile, eliminate, harvest new basis polynomials.

    Returns (plan, echelon, stats) for instrumentation.  With
    ``numeric="wiedemann"`` it also solves every batch's left kernel,
    whatever its size, by ``wiedemann_solve`` on the transpose, and checks it.
    """
    config = config or PipelineConfig()
    ring = state.ring
    pairs, degree = select_batch(state)
    rows = select_rows(pairs.lcm, pairs.i, pairs.j, state.basis)
    plan = compile_batch(rows, state.basis, Closure.ONE_STEP_REDUCTION, ExecPolicy(config.workers))

    t0 = time.monotonic_ns()
    A = csr_from_plan(plan, ring.modulus)
    ech = psge_reduce(A, back_reduce=False)
    numeric_ns = time.monotonic_ns() - t0

    if config.numeric == "wiedemann":
        nullity = A.n_rows - ech.rank
        kernel = wiedemann_solve(csr_transpose(A), config.seed, nullity)
        # the basis is still the one the batch was compiled from: _harvest runs below
        report = _kernel_report(plan, soa_polys(state.basis), kernel, nullity)
        if not report.ok:
            raise PropertyViolationError(f"kernel syzygy violation: {report.detail}")

    new_polys = _harvest(state, plan, ech.nonpivot_rows)
    stats = BatchStats(
        degree=degree,
        r=plan.counters.r,
        N=plan.counters.N,
        M=plan.counters.M,
        nnz=plan.counters.nnz,
        rank=ech.rank,
        new_polys=new_polys,
        zero_reductions=ech.zero_row_count,
        closure_rounds=plan.counters.closure_rounds,
        fill_generated=ech.fill_generated,
        timings_ns={
            "dict_build": plan.timings_ns["dict_build_ns"],
            "row_assemble": plan.timings_ns["row_assemble_ns"],
            "numeric_core": numeric_ns,
        },
    )
    return plan, ech, stats


def reduce_basis(polys: list, ring: Ring) -> list:
    """Canonical reduced basis: minimal, tail-reduced, monic, sorted by lead.

    One scalar normal form per minimal member; only the Buchberger oracle
    uses it, so F4's batch-engine interreduction is checked against an
    independent route.
    """
    work = [poly_monic(f) for f in polys if not f.is_zero()]
    work.sort(key=lambda f: ring.sort_key(f.lm()))
    minimal = []
    for f in work:
        if not any(mon_divides(g.lm(), f.lm()) for g in minimal):
            minimal.append(f)
    # one pass: no other lead divides a member's lead, so every lead (and
    # its coefficient 1) survives, and a member reduced against the others'
    # leads stays reduced when they are reduced in turn
    for i in range(len(minimal)):
        minimal[i] = normal_form(minimal[i], minimal[:i] + minimal[i + 1 :])
    minimal.sort(key=lambda f: ring.sort_key(f.lm()), reverse=True)
    return minimal


def _interreduce(soa: SoaPolySet, config: PipelineConfig) -> list:
    """Reduced basis of a Groebner basis as one batch through the F4 engine.

    ``soa`` holds the basis as monic nonzero members, as F4's basis does.
    One row per minimal member (shift 1); the one-step closure supplies a
    reducer row for every tail monomial some lead divides, and the fully
    back-substituted echelon form leaves each member's row free of every
    such monomial.  For a Groebner basis that row is the unique
    reduced member with its lead.
    """
    if not len(soa):
        return []
    ring = soa.ring
    # ascending lead, equal leads by index: the closure's reducer order, so
    # every reducer it picks (the first dividing lead) is a kept member
    order = _reducer_preference(soa)
    leads = soa.exps[soa.offset[order]]
    k = order[minimal_rows(leads)]
    rows = RowMeta.of(RowRole.REDUCER.value, 0, k, np.zeros((len(k), ring.n_vars), dtype=np.int64))
    plan = compile_batch(rows, soa, Closure.ONE_STEP_REDUCTION, ExecPolicy(config.workers))
    ech = psge_reduce(csr_from_plan(plan, ring.modulus), back_reduce=True)
    # every row leads its own column, so every row is a known pivot
    member_cols = row_lead_cols(plan)[: len(rows)]
    # members ascend by lead; the reduced basis lists leads descending
    at = np.searchsorted(ech.pivot_rows.leads, member_cols[::-1])
    return soa_polys(_decode_rows(plan, ech.pivot_rows.take(at)))


def f4_groebner(
    system: list, ring: Ring, config: PipelineConfig | None = None, on_batch=None
) -> list:
    """Reduced Groebner basis via the batched driver: the one F4 loop.

    ``on_batch(basis_before, plan, echelon, stats)``, when given, is called
    after every batch with the basis the batch was compiled from (the
    driver's SoaPolySet, which later batches never change), its plan, its
    elimination result and its BatchStats.
    """
    config = config or PipelineConfig()
    state = GroebnerState(ring)
    for f in system:
        if f.is_zero():
            raise PreconditionError("zero polynomial in input system")
    update_pairs(state, soa_pack([poly_monic(f) for f in system], ring))
    steps = 0
    while state.pairs:
        if steps >= config.max_steps:
            raise NonterminationError(f"f4 exceeded {config.max_steps} batches")
        basis_before = state.basis
        plan, ech, stats = f4_step(state, config)
        steps += 1
        if on_batch is not None:
            on_batch(basis_before, plan, ech, stats)
    return _interreduce(state.basis, config)


def _chained(a: int, b: int, lcm: tuple, leads: list, treated) -> bool:
    """Buchberger's chain criterion for the pair (a, b), a < b: some other
    member c has a lead dividing lcm(a, b), and ``treated`` holds for both
    (a, c) and (b, c), each written low index first.  Then S(a, b) is a
    combination of S(a, c) and S(c, b) whose terms lie below the lcm."""
    for c, w in enumerate(leads):
        if c != a and c != b and all(map(le, w, lcm)):
            if treated((min(a, c), max(a, c))) and treated((min(b, c), max(b, c))):
                return True
    return False


def buchberger_reference(system: list, ring: Ring, max_steps: int = MAX_STEPS_DEFAULT) -> list:
    """Textbook pair-and-reduce oracle with Buchberger's two criteria and sugar.

    A pair (i, j), i < j, is queued unless its leads are coprime (the
    product criterion).  A popped pair is skipped when some other member k
    has a lead dividing lcm(i, j) and neither (i, k) nor (j, k) is still
    queued (the chain criterion, Cox-Little-O'Shea's Criterion(i, j, B));
    a coprime pair, never queued, counts as treated.  Pairs pop from a heap
    by (sugar, term order of the lcm, i, j).  An input's sugar is its total
    degree; a pair's is the larger of sugar_i + deg lcm - deg lm_i and
    sugar_j + deg lcm - deg lm_j, and a new member keeps its pair's sugar
    (Giovini, Mora, Niesi, Robbiano & Traverso, ISSAC 1991).  ``max_steps``
    caps the reductions; a skipped pair costs none.

    Intentionally independent of the batch pipeline: plain tuple code whose
    only shared code is the polynomial/monomial layer.  It returns
    ``reduce_basis`` of what it found, so the skipped pairs never show.
    """
    for f in system:
        if f.is_zero():
            raise PreconditionError("zero polynomial in input system")
    basis, leads, sugar = [], [], []
    heap = []
    queued = set()

    def enter(f, s):
        t = len(basis)
        u = f.lm()
        for i, v in enumerate(leads):
            lcm = mon_lcm(v, u)
            if lcm == tuple(map(add, v, u)):
                continue  # product criterion
            d = sum(lcm)
            pair_sugar = max(sugar[i] + d - sum(v), s + d - sum(u))
            heappush(heap, (pair_sugar, ring.sort_key(lcm), i, t, lcm))
            queued.add((i, t))
        basis.append(f)
        leads.append(u)
        sugar.append(s)

    for f in system:
        enter(poly_monic(f), max(sum(e) for e, _ in f.terms))
    steps = 0
    while heap:
        s, _, i, j, lcm = heappop(heap)
        queued.remove((i, j))
        if _chained(i, j, lcm, leads, lambda pair: pair not in queued):
            continue
        if steps >= max_steps:
            raise NonterminationError(f"buchberger exceeded {max_steps} reductions")
        steps += 1
        h = normal_form(spoly(basis[i], basis[j]), basis)
        if not h.is_zero():
            enter(poly_monic(h), s)
    return reduce_basis(basis, ring)


@dataclass
class GroebnerReport:
    ok: bool
    detail: str = ""
    witness: tuple | None = None


def is_groebner(G: list, ring: Ring) -> GroebnerReport:
    """Buchberger criterion check: every S-polynomial reduces to zero.

    The pairs (a, b), a < b, of the nonzero members are visited in
    ascending (lcm degree, term order of the lcm, a, b).  A pair is settled
    without a reduction when its leads are coprime (the product criterion),
    or when some other member c has a lead dividing lcm(a, b) and both
    (a, c) and (b, c) were visited earlier (the chain criterion); every
    other pair is reduced.  While every reduction ends in zero, each
    visited pair has an lcm-representation, by induction (Cox, Little &
    O'Shea, Ch. 2 Sec. 10, Thm. 6), so the verdict is exactly the
    all-pairs verdict.  The witness is the first reduced pair in that
    order whose S-polynomial has a nonzero remainder.
    """
    live = [g for g in G if not g.is_zero()]
    leads = [g.lm() for g in live]
    pairs = []
    for b, u in enumerate(leads):
        for a in range(b):
            lcm = mon_lcm(leads[a], u)
            pairs.append((sum(lcm), ring.sort_key(lcm), a, b, lcm))
    pairs.sort()
    visited = set()
    for _, _, a, b, lcm in pairs:
        coprime = lcm == tuple(map(add, leads[a], leads[b]))
        if not coprime and not _chained(a, b, lcm, leads, visited.__contains__):
            r = normal_form(spoly(live[a], live[b]), live)
            if not r.is_zero():
                return GroebnerReport(
                    False, f"S-poly of members {a},{b} does not reduce to zero", (a, b)
                )
        visited.add((a, b))
    return GroebnerReport(True)


def verify_kernel_syzygy(
    plan: LayoutPlan, basis: list, kernel: KernelBasis, shifted: list | None = None
) -> GroebnerReport:
    """Exact recombination check: sum_i v_i (t_i g_{k_i}) must vanish.

    One pass per call.  The rows some vector uses give a term matrix T: row
    i holds the coefficients of row i's shifted polynomial (``shifted[i]``
    when given, else built from the plan's row metadata and the basis, never
    the plan's matrix), on one column per exponent tuple.  One product V T
    mod p by ``fp.matmul_mod`` checks every vector, its exact tier chosen
    from the K used rows and p; T is formed in column slices that fit
    ``BLOCK_BYTES``.  The first vector, in order, of the wrong
    length or with a nonzero product is reported.  This is only guaranteed
    for support-closed plans; a failure is a property violation, not an
    input error.
    """
    ring = plan.ring
    m = ring.modulus
    p = m.p
    fits = [len(v) == plan.n_rows for v in kernel.vectors]
    V = np.array([v for v, ok in zip(kernel.vectors, fits) if ok], dtype=np.uint64)
    V = V.reshape(sum(fits), plan.n_rows) % np.uint64(p)
    used = np.flatnonzero(V.any(axis=0))
    V = V[:, used]
    col_of: dict = {}
    at_row, at_col, coef = [], [], []
    meta = zip(plan.row_meta.shift[used].tolist(), plan.row_meta.basis_index[used].tolist())
    for r, (i, (t, k)) in enumerate(zip(used.tolist(), meta)):
        terms = poly_mul_mon(tuple(t), basis[k]).terms if shifted is None else shifted[i].terms
        for e, a in terms:
            at_row.append(r)
            at_col.append(col_of.setdefault(e, len(col_of)))
            coef.append(a)
    at_row, at_col = np.array(at_row, dtype=np.int64), np.array(at_col, dtype=np.int64)
    coef = np.array(coef, dtype=np.uint64) % np.uint64(p)
    # each vector's nonzero terms of V T, exponent -> residue, slice by slice
    exps, nonzero = list(col_of), {}
    step = max(1, BLOCK_BYTES // (8 * max(len(used), len(V), 1)))
    for c0 in range(0, len(exps), step):
        sel = (at_col >= c0) & (at_col < c0 + step)
        T = np.zeros((len(used), min(step, len(exps) - c0)), dtype=np.uint64)
        T[at_row[sel], at_col[sel] - c0] = coef[sel]
        W = matmul_mod(V, T, m)
        r, c = np.nonzero(W)
        for j, x, y in zip(r.tolist(), (c + c0).tolist(), W[r, c].tolist()):
            nonzero.setdefault(j, {})[exps[x]] = int(y)
    j = 0
    for n, ok in enumerate(fits):
        if not ok:
            return GroebnerReport(False, f"kernel vector {n} has wrong length")
        if j in nonzero:
            return GroebnerReport(False, f"kernel vector {n} recombines to {poly_from_dict(nonzero[j], ring)}")
        j += 1
    return GroebnerReport(True)


def _kernel_report(plan: LayoutPlan, basis: list, kernel: KernelBasis, nullity: int, shifted=None):
    """Exact recombination of every vector, and exactly ``nullity`` of them."""
    found = f"found {kernel.dimension_found} of nullity {nullity}"
    rep = verify_kernel_syzygy(plan, basis, kernel, shifted)
    if not rep.ok:
        return GroebnerReport(False, f"{found}; {rep.detail}")
    return GroebnerReport(kernel.dimension_found == nullity, found)


def groebner_kernel_checks(
    plan: LayoutPlan, basis: list, m: FieldModulus, rank: int, seed=0, shifted=None
):
    """Left kernels via both engines, each recombined exactly; returns reports.

    ``rank`` is the batch's rank from elimination, so both engines are held
    to the nullity ``n_rows - rank``: a report passes only if it found
    exactly that many vectors and every one recombines to zero.  The dense
    check is the dense oracle and runs first, so a batch above
    ``sparselin.DENSE_CAP`` raises its SizeCapError before any kernel is
    computed; Wiedemann derives its block width from the nullity.  Each
    row's prebuilt ``shifted`` polynomial, when given, goes to the
    recombination.
    """
    A = csr_from_plan(plan, m)
    nullity = A.n_rows - rank
    reports = []
    dense_kb = left_kernel(A, count=nullity)
    reports.append(("dense", _kernel_report(plan, basis, dense_kb, nullity, shifted), dense_kb))
    try:
        kb = wiedemann_solve(csr_transpose(A), seed, nullity)
        reports.append(("wiedemann", _kernel_report(plan, basis, kb, nullity, shifted), kb))
    except ProbabilisticFailureError as exc:  # reported, never hidden
        reports.append(("wiedemann", GroebnerReport(False, str(exc)), None))
    return reports
