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
``PipelineConfig`` is the one config type, validated when it is built.

The reference path is a textbook Buchberger loop (product criterion only,
scalar normal-form reduction) that shares nothing with the batch machinery
beyond the polynomial primitives; it interreduces with scalar normal forms
(``reduce_basis``).  A reduced basis is canonical, so the two drivers must
agree byte for byte, and that check covers both interreductions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bulk import ExecPolicy
from .errors import (
    NonterminationError,
    PreconditionError,
    ProbabilisticFailureError,
    PropertyViolationError,
)
from .fp import Backend, FieldModulus
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
    soa_concat,
    soa_pack,
    soa_polys,
)
from .sparselin import (
    EchelonResult,
    KernelBasis,
    csr_from_plan,
    csr_transpose,
    dense_gauss,
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


def normal_form(f: Poly, basis: list) -> Poly:
    """Full remainder of f modulo the basis.

    Deterministic reducer choice matches the batch compiler's closure rule;
    no monomial of the result is divisible by any basis leading monomial.
    """
    live = [g for g in basis if not g.is_zero()]
    if f.is_zero() or not live:
        return f
    ring = f.ring
    p = ring.modulus.p
    table = _reducer_table(live)
    work = f
    out = []
    while not work.is_zero():
        lead, lc = work.terms[0]
        hit = None
        for lm_g, i in table:
            if mon_divides(lm_g, lead):
                hit = i
                break
        if hit is None:
            out.append((lead, lc))
            work = Poly(ring, work.terms[1:])
            continue
        g = live[hit]
        coef = lc * pow(g.lc(), p - 2, p) % p
        shifted = poly_mul_mon(mon_div(lead, g.lm()), g)
        work = poly_add_scaled(work, p - coef, shifted)
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
    """The F4 driver's state: the basis as one SoaPolySet, and the pair queue.

    ``update_pairs`` is the only writer of ``basis``.  It appends by
    building a new set with ``soa_concat`` and never changes a set in
    place, so a set read earlier (``on_batch``'s ``basis_before``) keeps
    its members.
    """

    ring: Ring
    basis: SoaPolySet = field(init=False)
    stats: list = field(default_factory=list)
    zero_reductions: int = 0
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
    rows that are not minimal.
    """
    order = np.argsort(cdeg, kind="stable")
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
    if (new.length == 0).any() or (new.coeff[new.offset[:-1]] != 1).any():
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
    """Every setting of a run; checked once, when it is built."""

    engine: str = "f4"  # f4 | buchberger
    numeric: str = "psge"  # psge | dense | wiedemann
    backend: str = "naive"  # naive | barrett | montgomery
    panel_width: int = 256
    block_width: int = 4
    seed: int = 0
    workers: int = 1
    max_steps: int = MAX_STEPS_DEFAULT

    def __post_init__(self):
        if self.engine not in ("f4", "buchberger"):
            raise PreconditionError(f"unknown engine {self.engine!r}")
        if self.numeric not in ("psge", "dense", "wiedemann"):
            raise PreconditionError(f"unknown numeric engine {self.numeric!r}")
        if self.backend not in {b.value for b in Backend}:
            raise PreconditionError(f"unknown backend {self.backend!r}")
        if self.workers < 1:
            raise PreconditionError("workers must be >= 1")
        if self.block_width < 1:
            raise PreconditionError("block_width must be >= 1")
        if self.panel_width < 1:
            raise PreconditionError("panel_width must be >= 1")
        if self.max_steps < 0:
            raise PreconditionError("max_steps must be >= 0")


def _decode_rows(plan: LayoutPlan, rows: list) -> SoaPolySet:
    """Nonempty sparse rows (cols, vals) as one SoaPolySet, with one ``key_unpack_vec`` call."""
    length = np.array([len(cols) for cols, _ in rows], dtype=np.int64)
    keys = plan.dict_keys[np.concatenate([cols for cols, _ in rows])]
    coeff = np.concatenate([vals for _, vals in rows]).astype(np.uint64)
    offset = np.concatenate([[0], np.cumsum(length)])
    return SoaPolySet(plan.ring, keys, coeff, offset, length, key_unpack_vec(keys, plan.ring))


def _harvest(state: GroebnerState, plan: LayoutPlan, rows: list) -> int:
    """Add a batch's new echelon rows to the basis; returns how many.

    The rows are monic.  They enter in ascending order of their leading
    monomials (descending leading column), as one ``update_pairs`` call.
    """
    if not rows:
        return 0
    rows = sorted(rows, key=lambda row: -row[0])
    update_pairs(state, _decode_rows(plan, [(cols, vals) for _, cols, vals in rows]))
    return len(rows)


def _dense_echelon(plan: LayoutPlan, m: FieldModulus) -> EchelonResult:
    """Dense-oracle stand-in for the known-pivot engine (small batches only)."""
    A = csr_from_plan(plan, m)
    rank, rref, pivots = dense_gauss(A.to_dense(), m)
    orig = set(row_lead_cols(plan).tolist())
    pivot_rows, nonpivot_rows = [], []
    for r_i, col in enumerate(pivots):
        cols = np.flatnonzero(rref[r_i]).astype(np.int64)
        entry = (col, cols, rref[r_i][cols])
        (pivot_rows if col in orig else nonpivot_rows).append(entry)
    return EchelonResult(list(pivots), pivot_rows, nonpivot_rows, A.n_rows - rank, rank, 0)


def f4_step(state: GroebnerState, config: PipelineConfig | None = None):
    """One batch: select, compile, eliminate, harvest new basis polynomials.

    Returns (plan, echelon, kernel) for instrumentation; kernel is None
    unless the config requests the relation-discovery pass.
    """
    config = config or PipelineConfig()
    ring = state.ring
    pairs, degree = select_batch(state)
    rows = select_rows(pairs.lcm, pairs.i, pairs.j, state.basis)
    plan = compile_batch(rows, state.basis, Closure.ONE_STEP_REDUCTION, ExecPolicy(config.workers))

    t0 = time.monotonic_ns()
    if config.numeric == "dense":
        ech = _dense_echelon(plan, ring.modulus)
    else:
        A = csr_from_plan(plan, ring.modulus)
        ech = psge_reduce(A, config.panel_width, back_reduce=False)
    numeric_ns = time.monotonic_ns() - t0

    kernel = None
    if config.numeric == "wiedemann":
        nullity = A.n_rows - ech.rank
        kernel = left_kernel(A, count=nullity, seed=config.seed, block_width=config.block_width)
        # the basis is still the one the batch was compiled from: _harvest runs below
        report = _kernel_report(plan, soa_polys(state.basis), kernel, nullity)
        if not report.ok:
            raise PropertyViolationError(f"kernel syzygy violation: {report.detail}")

    new_polys = _harvest(state, plan, ech.nonpivot_rows)
    state.zero_reductions += ech.zero_row_count
    state.stats.append(
        BatchStats(
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
    )
    return plan, ech, kernel


def reduce_basis(polys: list, ring: Ring) -> list:
    """Canonical reduced basis: minimal, tail-reduced, monic, sorted by lead.

    Scalar normal-form loops; only the Buchberger oracle uses it, so F4's
    batch-engine interreduction is checked against an independent route.
    """
    work = [poly_monic(f) for f in polys if not f.is_zero()]
    work.sort(key=lambda f: ring.sort_key(f.lm()))
    minimal = []
    for f in work:
        if not any(mon_divides(g.lm(), f.lm()) for g in minimal):
            minimal.append(f)
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1 :]
            r = normal_form(minimal[i], others)
            if r.terms != minimal[i].terms:
                minimal[i] = poly_monic(r)
                changed = True
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
    ech = psge_reduce(csr_from_plan(plan, ring.modulus), config.panel_width, back_reduce=True)
    # every row leads its own column, so every row is a known pivot
    rref = {c: (cols, vals) for c, cols, vals in ech.pivot_rows}
    member_cols = row_lead_cols(plan)[: len(rows)].tolist()
    # members ascend by lead; the reduced basis lists leads descending
    return soa_polys(_decode_rows(plan, [rref[c] for c in reversed(member_cols)]))


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
    if config.engine != "f4":
        raise PreconditionError(f"f4_groebner cannot run engine {config.engine!r}")
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
        plan, ech, _ = f4_step(state, config)
        steps += 1
        if on_batch is not None:
            on_batch(basis_before, plan, ech, state.stats[-1])
    return _interreduce(state.basis, config)


def buchberger_reference(system: list, ring: Ring, max_steps: int = MAX_STEPS_DEFAULT) -> list:
    """Textbook pair-and-reduce oracle: product criterion only.

    Intentionally independent of the batch pipeline; the only shared code is
    the polynomial/monomial layer.
    """
    for f in system:
        if f.is_zero():
            raise PreconditionError("zero polynomial in input system")
    basis = []
    queue = []

    def push_pairs(t):
        for i in range(t):
            lcm = mon_lcm(basis[i].lm(), basis[t].lm())
            if lcm == mon_mul(basis[i].lm(), basis[t].lm()):
                continue  # coprime leading monomials reduce to zero
            queue.append((sum(lcm), ring.sort_key(lcm), i, t))

    for f in system:
        basis.append(poly_monic(f))
        push_pairs(len(basis) - 1)
    steps = 0
    while queue:
        if steps >= max_steps:
            raise NonterminationError(f"buchberger exceeded {max_steps} reductions")
        queue.sort()
        _, _, i, j = queue.pop(0)
        h = normal_form(spoly(basis[i], basis[j]), basis)
        if not h.is_zero():
            basis.append(poly_monic(h))
            push_pairs(len(basis) - 1)
        steps += 1
    return reduce_basis(basis, ring)


@dataclass
class GroebnerReport:
    ok: bool
    detail: str = ""
    witness: tuple | None = None


def is_groebner(G: list, ring: Ring) -> GroebnerReport:
    """Buchberger criterion check: every S-polynomial reduces to zero."""
    live = [g for g in G if not g.is_zero()]
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            r = normal_form(spoly(live[a], live[b]), live)
            if not r.is_zero():
                return GroebnerReport(
                    False, f"S-poly of members {a},{b} does not reduce to zero", (a, b)
                )
    return GroebnerReport(True)


def verify_kernel_syzygy(
    plan: LayoutPlan, basis: list, kernel: KernelBasis, shifted: list | None = None
) -> GroebnerReport:
    """Exact recombination check: sum_i v_i (t_i g_{k_i}) must vanish.

    Row i's shifted polynomial is ``shifted[i]`` when given, else built once
    per call from the plan's row metadata and the basis (never the plan's
    matrix); each vector sums its scaled rows into one dict keyed by
    exponent tuple.  This is only guaranteed for support-closed plans; a
    failure is a property violation, not an input error.
    """
    ring = plan.ring
    p = ring.modulus.p
    shifts = plan.row_meta.shift.tolist()
    ks = plan.row_meta.basis_index.tolist()
    row_terms: dict = {} if shifted is None else {i: f.terms for i, f in enumerate(shifted)}
    for n, v in enumerate(kernel.vectors):
        if len(v) != plan.n_rows:
            return GroebnerReport(False, f"kernel vector {n} has wrong length")
        acc: dict = {}
        for i in np.flatnonzero(v).tolist():
            terms = row_terms.get(i)
            if terms is None:
                terms = row_terms[i] = poly_mul_mon(tuple(shifts[i]), basis[ks[i]]).terms
            c = int(v[i])
            for e, a in terms:
                acc[e] = acc.get(e, 0) + c * a
        if any(x % p for x in acc.values()):
            total = poly_from_dict(acc, ring)
            return GroebnerReport(False, f"kernel vector {n} recombines to {total}")
    return GroebnerReport(True)


def _kernel_report(plan: LayoutPlan, basis: list, kernel: KernelBasis, nullity: int, shifted=None):
    """Exact recombination of every vector, and exactly ``nullity`` of them."""
    found = f"found {kernel.dimension_found} of nullity {nullity}"
    rep = verify_kernel_syzygy(plan, basis, kernel, shifted)
    if not rep.ok:
        return GroebnerReport(False, f"{found}; {rep.detail}")
    return GroebnerReport(kernel.dimension_found == nullity, found)


def groebner_kernel_checks(
    plan: LayoutPlan, basis: list, m: FieldModulus, rank: int, seed: int = 0, shifted=None
):
    """Left kernels via both engines, each recombined exactly; returns reports.

    ``rank`` is the batch's rank from elimination, so both engines are held
    to the nullity ``n_rows - rank``: a report passes only if it found
    exactly that many vectors and every one recombines to zero.  Each row's
    prebuilt ``shifted`` polynomial, when given, goes to the recombination.
    """
    A = csr_from_plan(plan, m)
    nullity = A.n_rows - rank
    reports = []
    dense_kb = left_kernel(A, count=nullity, seed=seed)
    reports.append(("dense", _kernel_report(plan, basis, dense_kb, nullity, shifted), dense_kb))
    try:
        kb = wiedemann_solve(csr_transpose(A), seed, nullity)
        reports.append(("wiedemann", _kernel_report(plan, basis, kb, nullity, shifted), kb))
    except ProbabilisticFailureError as exc:  # reported, never hidden
        reports.append(("wiedemann", GroebnerReport(False, str(exc)), None))
    return reports
