"""Driver-level tests: S-polys, criteria, F4 batches, oracle equivalence."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from fpgb.errors import (
    ArityMismatchError,
    LaneOverflowError,
    NonterminationError,
    PreconditionError,
    ProbabilisticFailureError,
    SizeCapError,
)
from fpgb.fp import FieldModulus
from fpgb import groebner, monomials, sparselin, symbolic
from fpgb.monomials import ORDERS, Ring, mon_divides, mon_lcm, mon_mul
from fpgb.polynomials import (
    Poly,
    SoaPolySet,
    poly_add_scaled,
    poly_format,
    poly_from_dict,
    poly_monic,
    poly_mul_mon,
    poly_normalize,
    poly_parse,
    poly_scale,
    soa_pack,
    soa_polys,
)
from fpgb.groebner import (
    GroebnerState,
    _interreduce,
    PairQueue,
    PipelineConfig,
    buchberger_reference,
    f4_groebner,
    f4_step,
    groebner_kernel_checks,
    is_groebner,
    normal_form,
    reduce_basis,
    select_batch,
    spoly,
    update_pairs,
    verify_kernel_syzygy,
)
from fpgb.sparselin import KernelBasis, csr_from_plan, left_kernel, psge_reduce
from fpgb.symbolic import Closure, RowMeta, RowRole, compile_batch
from fpgb.systems import (
    format_system,
    gen_cyclic,
    gen_katsura,
    gen_random_quadratic,
    parse_system,
)

M7 = FieldModulus(7)
R2 = Ring(["x", "y"], "grevlex", M7)


def gb_text(basis):
    return [poly_format(f) for f in basis]


def test_spoly_examples():
    f = poly_parse("x^2 - y", R2)
    g = poly_parse("x*y - 1", R2)
    assert poly_format(spoly(f, g)) == "6*y^2 + x"
    assert spoly(f, f).is_zero()
    # coprime leads: S(x-1, y-1) has lead below lcm(x, y)
    s = spoly(poly_parse("x - 1", R2), poly_parse("y - 1", R2))
    assert s.lm() in ((1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        spoly(f, Poly(R2))


def test_normal_form_examples():
    g = poly_parse("x*y - 1", R2)
    assert normal_form(g, [g]).is_zero()
    rx = Ring(["x"], "grevlex", M7)
    assert poly_format(normal_form(poly_parse("x^2", rx), [poly_parse("x - 1", rx)])) == "1"
    f = poly_parse("x^2 - y", R2)
    assert normal_form(f, []).terms == f.terms


def test_normal_form_no_reducible_monomials():
    rng = np.random.default_rng(1)
    basis = [poly_parse("x^2 - y", R2), poly_parse("x*y - 1", R2)]
    for _ in range(50):
        terms = [
            (tuple(int(x) for x in rng.integers(0, 5, 2)), int(rng.integers(0, 7)))
            for _ in range(4)
        ]
        f = poly_normalize(terms, R2)
        r = normal_form(f, basis)
        for e, _ in r.terms:
            assert not any(mon_divides(g.lm(), e) for g in basis)


def merge_loop_normal_form(f, basis):
    """The term-list loop that normal_form replaced, kept as its oracle.

    Each step shifts the whole reducer with per-term mon_mul and merges it
    into the whole work polynomial with poly_add_scaled.
    """
    live = [g for g in basis if not g.is_zero()]
    if f.is_zero() or not live:
        return f
    ring = f.ring
    p = ring.modulus.p
    table = sorted(live, key=lambda g: ring.sort_key(g.lm()))  # stable: equal leads by index
    work, out = f, []
    while not work.is_zero():
        lead, lc = work.terms[0]
        g = next((g for g in table if mon_divides(g.lm(), lead)), None)
        if g is None:
            out.append((lead, lc))
            work = Poly(ring, work.terms[1:])
            continue
        t = tuple(a - b for a, b in zip(lead, g.lm()))
        shifted = Poly(ring, tuple((mon_mul(t, e), c) for e, c in g.terms))
        coef = lc * pow(g.lc(), p - 2, p) % p
        work = poly_add_scaled(work, p - coef, shifted)
    return Poly(ring, tuple(out))


def test_normal_form_matches_merge_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3),
        order=st.sampled_from(ORDERS),
        p=st.sampled_from([7, 65537, 2**31 - 19]),
        data=st.data(),
    )
    def check(n, order, p, data):
        ring = Ring([f"x{i}" for i in range(n)], order, FieldModulus(p))
        mon = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
        coeff = st.integers(1, p - 1)  # leads are rarely monic

        def poly(max_terms):
            return poly_normalize(data.draw(st.lists(st.tuples(mon, coeff), max_size=max_terms)), ring)

        basis = []
        for _ in range(data.draw(st.integers(0, 5))):
            live = [g for g in basis if not g.is_zero()]
            kind = data.draw(st.sampled_from(["random", "zero", "equal lead"]))
            if kind == "zero":
                basis.append(Poly(ring))
            elif kind == "equal lead" and live:
                g = data.draw(st.sampled_from(live))
                below = [(e, c) for e, c in poly(4).terms if ring.sort_key(e) < ring.sort_key(g.lm())]
                basis.append(Poly(ring, ((g.lm(), data.draw(coeff)),) + tuple(below)))
            else:
                basis.append(poly(5))
        # a combination of shifted members cancels much of itself on the way down
        f = poly(6)
        for g in basis:
            if not g.is_zero() and data.draw(st.booleans()):
                f = poly_add_scaled(f, data.draw(coeff), poly_mul_mon(data.draw(mon), g))
        assert normal_form(f, basis).terms == merge_loop_normal_form(f, basis).terms

    check()


def test_normal_form_lane_boundary():
    # lex: x leads x + y^40000, so reducing x*y^k shifts the tail to y^(40000+k)
    rl = Ring(["x", "y"], "lex", M7)
    g = poly_parse("x + y^40000", rl)
    assert normal_form(poly_parse("x*y^25535", rl), [g]).terms == (((0, 65535), 6),)
    with pytest.raises(LaneOverflowError):
        normal_form(poly_parse("x*y^25536", rl), [g])
    # the shift's largest exponent plus g's reaches 2^16, but no product does:
    # every term goes through mon_mul, which succeeds
    r3 = Ring(["x", "y", "z"], "lex", M7)
    f, g = poly_parse("x*y^30000", r3), poly_parse("x + z^40000", r3)
    assert normal_form(f, [g]).terms == (((0, 30000, 40000), 6),)
    # a member of another arity raises when the divisor scan reaches it
    with pytest.raises(ArityMismatchError):
        normal_form(poly_parse("x*y", R2), [poly_parse("x*y*z", r3)])


def test_update_pairs_product_criterion():
    state = GroebnerState(R2)
    update_pairs(state, soa_pack([poly_parse("x + 6", R2)], R2))
    assert len(state.pairs) == 0
    update_pairs(state, soa_pack([poly_parse("y + 6", R2)], R2))
    assert len(state.pairs) == 0  # lcm(x, y) = x*y is the coprime product


def test_update_pairs_chain_criterion():
    r3 = Ring(["x", "y", "z"], "grevlex", M7)
    state = GroebnerState(r3)
    update_pairs(state, soa_pack([poly_parse("x^2*z + y", r3)], r3))
    update_pairs(state, soa_pack([poly_parse("y^2*z + x", r3)], r3))
    assert queue_pairs(state) == [(0, 1)]
    # lm x*y*z divides lcm(0,1) = x^2 y^2 z while both sub-lcms differ
    update_pairs(state, soa_pack([poly_parse("x*y*z + 1", r3)], r3))
    # the old pair is gone; survivors sort by lcm key (x y^2 z before x^2 y z)
    assert queue_pairs(state) == [(1, 2), (0, 2)]


def test_update_pairs_rejects_members_not_monic_or_zero():
    state = GroebnerState(R2)
    update_pairs(state, soa_pack([poly_parse("x + 6", R2)], R2))
    for bad in ([poly_parse("y + 1", R2), poly_parse("3*y + 1", R2)], [Poly(R2)]):
        with pytest.raises(PreconditionError, match="monic and nonzero"):
            update_pairs(state, soa_pack(bad, R2))
        assert len(state.basis) == 1  # checked before anything is appended


def test_select_batch_minimal_degree_group():
    state = GroebnerState(R2)
    state.basis = soa_pack([poly_parse("x^2", R2)] * 4, R2)  # placeholder members
    # queue order: x*y^2 < x^2*y (degree 3), then x^4*y (degree 5)
    lcm = np.array([[1, 2], [2, 1], [4, 1]], dtype=np.int64)
    state.pairs = PairQueue.of([1, 0, 2], [2, 1, 3], lcm, lcm.sum(axis=1), R2)
    batch, degree = select_batch(state)
    assert degree == 3 and len(batch) == 2
    # the prefix in queue order: a pair's position in it is its id
    assert batch.lcm.tolist() == [[1, 2], [2, 1]]
    assert batch.i.tolist() == [1, 0] and batch.j.tolist() == [2, 1]
    assert len(state.pairs) == 1 and state.pairs.deg.tolist() == [5]
    batch2, _ = select_batch(state)
    assert len(batch2) == 1
    with pytest.raises(PreconditionError):
        select_batch(state)


def queue_pairs(state):
    return list(zip(state.pairs.i.tolist(), state.pairs.j.tolist()))


def scalar_update_pairs(leads, queue, lm_t, ring):
    """The scalar Gebauer-Moller update that the array queue replaced.

    ``leads`` lists the members' leading monomials and gains ``lm_t``;
    ``queue`` holds (i, j, lcm) and the updated queue is returned in
    (degree, term order of lcm, i, j) order.
    """
    t = len(leads)
    leads.append(lm_t)
    cands = [(i, t, mon_lcm(leads[i], lm_t)) for i in range(t)]
    # chain criterion among the new pairs
    kept = [
        a for a in cands if not any(b[2] != a[2] and mon_divides(b[2], a[2]) for b in cands)
    ]
    # one representative per lcm (lowest partner index)
    by_lcm = {}
    for c in kept:
        by_lcm.setdefault(c[2], c)
    # product criterion
    survivors = [c for c in by_lcm.values() if c[2] != mon_mul(leads[c[0]], lm_t)]
    # chain criterion against queued old pairs
    old = [
        q
        for q in queue
        if not (
            mon_divides(lm_t, q[2])
            and mon_lcm(leads[q[0]], lm_t) != q[2]
            and mon_lcm(leads[q[1]], lm_t) != q[2]
        )
    ]
    return sorted(old + survivors, key=lambda q: (sum(q[2]), ring.sort_key(q[2]), q[0], q[1]))


def test_pair_queue_matches_scalar_update():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 6),
        order=st.sampled_from(ORDERS),
        cells=st.sampled_from([1, 7, 1 << 20]),
        data=st.data(),
    )
    def check(n, order, cells, data):
        ring = Ring([f"x{i}" for i in range(n)], order, M7)
        # small exponents make equal lcms, coprime leads and leads that
        # divide one another common; a drawn lead may repeat or multiply an
        # earlier one outright
        fresh = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
        steps = data.draw(st.integers(1, 24))
        state, leads, queue = GroebnerState(ring), [], []
        old_cells = monomials._DIVISOR_CELLS
        monomials._DIVISOR_CELLS = cells
        try:
            for _ in range(steps):
                lead = data.draw(fresh)
                if leads and data.draw(st.booleans()):
                    base = data.draw(st.sampled_from(leads))
                    lead = tuple(a + b for a, b in zip(base, lead))
                if queue and data.draw(st.booleans()):
                    batch, d = select_batch(state)
                    assert d == sum(queue[0][2])
                    k = sum(1 for q in queue if sum(q[2]) == d)
                    got = zip(batch.i.tolist(), batch.j.tolist(), map(tuple, batch.lcm.tolist()))
                    assert list(got) == queue[:k]
                    queue = queue[k:]
                update_pairs(state, soa_pack([Poly(ring, ((lead, 1),))], ring))
                queue = scalar_update_pairs(leads, queue, lead, ring)
                got = list(
                    zip(
                        state.pairs.i.tolist(),
                        state.pairs.j.tolist(),
                        map(tuple, state.pairs.lcm.tolist()),
                    )
                )
                assert got == queue
                assert state.pairs.deg.tolist() == [sum(q[2]) for q in queue]
                assert state.basis.exps[state.basis.offset[:-1]].tolist() == [list(u) for u in leads]
        finally:
            monomials._DIVISOR_CELLS = old_cells

    check()


def test_scalar_oracles_share_no_code_with_f4(monkeypatch):
    named = [(gen_katsura, 3), (gen_katsura, 4), (gen_cyclic, 4)]
    cases = []
    for gen, n in named:
        ring, polys = gen(n, 65537)
        G = f4_groebner(polys, ring)
        cases.append((ring, polys, G, [G, G[1:], G[:-1]]))
    verdicts = [[is_groebner(H, ring).ok for H in sets] for ring, _, _, sets in cases]
    assert all(v[0] for v in verdicts) and not all(v[1] for v in verdicts)

    def forbidden(*args, **kwargs):
        raise AssertionError("a scalar oracle reached the F4 machinery")

    for name in ("update_pairs", "PairQueue", "minimal_rows", "compile_batch"):
        monkeypatch.setattr(groebner, name, forbidden)
    for module in (monomials, symbolic):  # minimal_rows reaches first_divisor through monomials
        for name in ("first_divisor", "minimal_rows", "compile_batch"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for (ring, polys, G, sets), want in zip(cases, verdicts):
        # buchberger_reference reduces with normal_form and ends in reduce_basis
        assert [f.terms for f in buchberger_reference(polys, ring)] == [f.terms for f in G]
        assert [is_groebner(H, ring).ok for H in sets] == want


def test_buchberger_reference_guard_counts_reductions():
    ring, polys = gen_katsura(4, 65537)
    want = [f.terms for f in f4_groebner(polys, ring)]
    # the product and chain criteria leave 28 reductions (49 with the product
    # criterion alone), and only reductions count toward max_steps
    assert [f.terms for f in buchberger_reference(polys, ring, max_steps=28)] == want
    with pytest.raises(NonterminationError, match="^buchberger exceeded 27 reductions$"):
        buchberger_reference(polys, ring, max_steps=27)
    with pytest.raises(NonterminationError, match="^buchberger exceeded 0 reductions$"):
        buchberger_reference(polys, ring, max_steps=0)
    # coprime leads: no pair is queued, so no reduction is needed
    f, g = poly_parse("x + 6", R2), poly_parse("y + 6", R2)
    assert gb_text(buchberger_reference([f, g], R2, max_steps=0)) == ["x + 6", "y + 6"]


def test_f4_step_worked_example():
    state = GroebnerState(R2)
    update_pairs(state, soa_pack([poly_parse("x^2 + 6*y", R2)], R2))
    update_pairs(state, soa_pack([poly_parse("x*y + 6", R2)], R2))
    assert len(state.pairs) == 1
    plan, ech, st = f4_step(state)
    assert len(state.basis) == 3
    # the harvested polynomial is the monic normal form of the S-polynomial
    assert poly_format(soa_polys(state.basis)[2]) == "y^2 + 6*x"
    assert st.rank == ech.rank and st.new_polys == 1
    assert st.zero_reductions + len(ech.pivot_rows) + len(ech.nonpivot_rows) == st.r


def test_f4_step_zero_reduction_batch():
    # inside a GB, every S-polynomial reduces to zero: no new rows
    gb = f4_groebner([poly_parse("x^2 - y", R2), poly_parse("x*y - 1", R2)], R2)
    state = GroebnerState(R2)
    for f in gb:
        update_pairs(state, soa_pack([f], R2))
    assert state.pairs  # some pairs survive the criteria here
    total_new = zero_reductions = 0
    while state.pairs:
        _, ech, st = f4_step(state)
        total_new += len(ech.nonpivot_rows)
        zero_reductions += st.zero_reductions
    assert total_new == 0
    assert zero_reductions > 0
    assert len(state.basis) == len(gb)


def test_f4_accounting_invariant_random():
    rng = np.random.default_rng(9)
    for seed in range(6):
        ring, polys = gen_random_quadratic(3, 3, 0.6, seed, 101)
        state = GroebnerState(ring)
        for f in polys:
            update_pairs(state, soa_pack([poly_monic(f)], ring))
        while state.pairs:
            _, ech, st = f4_step(state)
            assert (
                ech.zero_row_count + len(ech.pivot_rows) + len(ech.nonpivot_rows)
                == ech.zero_row_count + ech.rank
            )
            assert st.zero_reductions + ech.rank == st.r


def test_on_batch_sees_one_growing_soa_set():
    ring, polys = gen_katsura(4, 65537)
    streams = ("exps", "coeff", "offset")
    seen = []

    def on_batch(basis_before, plan, ech, st):
        seen.append((basis_before, [getattr(basis_before, a).copy() for a in streams]))

    f4_groebner(polys, ring, PipelineConfig(), on_batch)
    assert len(seen) > 2
    assert [f.terms for f in soa_polys(seen[0][0])] == [poly_monic(f).terms for f in polys]
    prev = None
    for basis, at_call in seen:
        assert isinstance(basis, SoaPolySet)
        basis.validate()
        assert (basis.coeff[basis.offset[:-1]] == 1).all()  # every member is monic
        # later batches append to a new set and never change this one
        assert all(np.array_equal(getattr(basis, a), c) for a, c in zip(streams, at_call))
        if prev is not None:
            k, m = len(prev), int(prev.offset[-1])
            assert len(basis) >= k
            assert np.array_equal(basis.offset[: k + 1], prev.offset)
            for a in ("coeff", "exps"):
                assert np.array_equal(getattr(basis, a)[:m], getattr(prev, a))
        prev = basis


def test_on_batch_receives_the_stats_f4_step_returns(monkeypatch):
    returned = []

    def f4_step_spy(state, config=None):
        returned.append(f4_step(state, config))
        return returned[-1]

    monkeypatch.setattr(groebner, "f4_step", f4_step_spy)
    seen = []
    ring, polys = gen_katsura(4, 65537)
    f4_groebner(polys, ring, PipelineConfig(), lambda basis, *batch: seen.append(batch))
    assert len(seen) == len(returned) > 2
    for got, want in zip(seen, returned):
        assert all(a is b for a, b in zip(got, want))
    assert [st.new_polys for _, _, st in seen] == [len(ech.nonpivot_rows) for _, ech, _ in seen]


def test_f4_groebner_singleton():
    rx = Ring(["x"], "grevlex", M7)
    gb = f4_groebner([poly_parse("x", rx)], rx)
    assert gb_text(gb) == ["x"]


def test_f4_groebner_rejects_zero_input():
    with pytest.raises(PreconditionError):
        f4_groebner([Poly(R2)], R2)


def test_f4_groebner_rejects_unknown_numeric():
    # "dense" is the oracle dense_gauss, called by name, never an F4 numeric core
    for numeric in ("bogus", "dense"):
        with pytest.raises(PreconditionError, match="unknown numeric engine"):
            f4_groebner([poly_parse("x^2 - y", R2)], R2, PipelineConfig(numeric=numeric))


def test_oracle_equivalence_toy():
    f = poly_parse("x^2 - y", R2)
    g = poly_parse("x*y - 1", R2)
    gb_f4 = f4_groebner([f, g], R2)
    gb_b = buchberger_reference([f, g], R2)
    assert gb_text(gb_f4) == gb_text(gb_b) == ["x^2 + 6*y", "x*y + 6", "y^2 + 6*x"]
    assert is_groebner(gb_f4, R2).ok


def test_oracle_equivalence_cyclic4():
    ring, polys = gen_cyclic(4, 101)
    gb_f4 = f4_groebner(polys, ring)
    gb_b = buchberger_reference(polys, ring)
    assert gb_text(gb_f4) == gb_text(gb_b)
    assert is_groebner(gb_f4, ring).ok


def test_engine_variants_agree():
    ring, polys = gen_katsura(2, 101)
    base = gb_text(f4_groebner(polys, ring))
    assert gb_text(f4_groebner(polys, ring, PipelineConfig(numeric="wiedemann"))) == base


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("gen,n", [(gen_katsura, 4), (gen_cyclic, 5)])
def test_wiedemann_route_completes_at_small_primes(monkeypatch, gen, n, p):
    # at p = 3 and 7 a random probe is often degenerate; each seed must
    # still fill every batch's kernel and give psge's basis
    nullities = []
    real_solve = groebner.wiedemann_solve

    def spy(At, seed, count, **kwargs):
        nullities.append(count)
        return real_solve(At, seed, count, **kwargs)

    monkeypatch.setattr(groebner, "wiedemann_solve", spy)
    ring, polys = gen(n, p)
    base = gb_text(f4_groebner(polys, ring))
    for seed in range(3):
        nullities.clear()
        got = f4_groebner(polys, ring, PipelineConfig(numeric="wiedemann", seed=seed))
        assert gb_text(got) == base
        assert sum(c > 0 for c in nullities) >= 2  # batches with a kernel to fill


def test_idempotence_on_reduced_basis():
    ring, polys = gen_cyclic(3, 7)
    gb = f4_groebner(polys, ring)
    assert gb_text(f4_groebner(gb, ring)) == gb_text(gb)
    assert gb_text(buchberger_reference(gb, ring)) == gb_text(gb)


def test_input_order_invariance():
    ring, polys = gen_katsura(3, 101)
    base = gb_text(f4_groebner(polys, ring))
    rng = np.random.default_rng(8)
    for _ in range(3):
        perm = [polys[i] for i in rng.permutation(len(polys))]
        assert gb_text(f4_groebner(perm, ring)) == base
        assert gb_text(buchberger_reference(perm, ring)) == base


def test_buchberger_already_groebner():
    f = poly_parse("x + 6", R2)
    g = poly_parse("y + 6", R2)
    assert gb_text(buchberger_reference([f, g], R2)) == ["x + 6", "y + 6"]


def test_is_groebner_witness():
    f = poly_parse("x^2 - y", R2)
    g = poly_parse("x*y - 1", R2)
    rep = is_groebner([f, g], R2)
    assert not rep.ok and rep.witness == (0, 1)
    assert is_groebner([f], R2).ok  # singleton: no pairs


def all_pairs_is_groebner(G):
    """The verdict with every pair reduced, no criterion applied."""
    live = [g for g in G if not g.is_zero()]
    return all(
        normal_form(spoly(live[a], live[b]), live).is_zero()
        for a in range(len(live))
        for b in range(a + 1, len(live))
    )


def test_is_groebner_product_criterion_keeps_the_verdict():
    """Product and chain criteria: the verdict is the all-pairs verdict."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3),
        order=st.sampled_from(ORDERS),
        mode=st.sampled_from(["random", "basis", "dropped", "tail"]),
        data=st.data(),
    )
    def check(n, order, mode, data):
        ring = Ring([f"x{i}" for i in range(n)], order, M7)
        mon = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
        term = st.tuples(mon, st.integers(1, 6))
        G = [poly_normalize(data.draw(st.lists(term, min_size=1, max_size=3)), ring)
             for _ in range(data.draw(st.integers(1, 4)))]
        if mode != "random" and not any(g.is_zero() for g in G):
            G = f4_groebner(G, ring)  # a reduced Groebner basis, with coprime leads common
            if mode == "dropped" and len(G) > 1:
                del G[data.draw(st.integers(0, len(G) - 1))]
            tails = [(k, t) for k, g in enumerate(G) for t in range(1, len(g.terms))]
            if mode == "tail" and tails:
                k, t = data.draw(st.sampled_from(tails))
                e, c = G[k].terms[t]
                c = data.draw(st.integers(1, M7.p - 1).filter(lambda v: v != c))
                G[k] = Poly(ring, G[k].terms[:t] + ((e, c),) + G[k].terms[t + 1 :])
        rep = is_groebner(G, ring)
        assert rep.ok == all_pairs_is_groebner(G)
        if not rep.ok:
            live = [g for g in G if not g.is_zero()]
            a, b = rep.witness
            assert any(min(u, v) for u, v in zip(live[a].lm(), live[b].lm()))
            assert not normal_form(spoly(live[a], live[b]), live).is_zero()

    check()


def test_is_groebner_reduces_only_non_coprime_pairs(monkeypatch):
    ring, polys = gen_katsura(4, 65537)
    G = f4_groebner(polys, ring)
    calls = []
    real_normal_form = groebner.normal_form

    def spy(f, basis):
        calls.append(f)
        return real_normal_form(f, basis)

    monkeypatch.setattr(groebner, "normal_form", spy)
    assert is_groebner(G, ring).ok
    # 13 members make 78 pairs; 41 have leads that share a variable, and the
    # chain criterion settles 15 of those
    assert len(G) == 13 and len(calls) == 26


def test_reduce_basis_canonical():
    f = poly_parse("x^2 - y", R2)
    rb = reduce_basis([f, poly_parse("2*x^2 - 2*y", R2)], R2)
    assert gb_text(rb) == ["x^2 + 6*y"]


def test_reduce_basis_one_normal_form_per_minimal_member(monkeypatch):
    ring, polys = gen_katsura(3, 65537)
    G = f4_groebner(polys, ring)
    messy = perturbed(G, np.random.default_rng(3))
    calls = []
    real_normal_form = groebner.normal_form

    def spy(f, basis):
        calls.append(f)
        return real_normal_form(f, basis)

    monkeypatch.setattr(groebner, "normal_form", spy)
    assert [f.terms for f in reduce_basis(messy, ring)] == [f.terms for f in G]
    # perturbed adds a non-minimal member and a duplicate lead; neither is reduced
    assert len(messy) == len(G) + 2 and len(calls) == len(G)


def criterion7_named_instances():
    for p in (7, 101, 65537):
        for n in (2, 3, 4):
            yield f"cyclic-{n}/F{p}", gen_cyclic(n, p)
        for n in (1, 2, 3):
            yield f"katsura-{n}/F{p}", gen_katsura(n, p)


def test_f4_interreduces_without_scalar_reduce_basis(monkeypatch):
    named = list(criterion7_named_instances())
    want = {name: buchberger_reference(polys, ring) for name, (ring, polys) in named}

    def forbidden(*args, **kwargs):
        raise AssertionError("reduce_basis called on the F4 path")

    monkeypatch.setattr("fpgb.groebner.reduce_basis", forbidden)
    for name, (ring, polys) in named:
        got = f4_groebner(polys, ring)
        assert [f.terms for f in got] == [f.terms for f in want[name]], name


def in_order(ring, polys, order):
    text = format_system(ring, polys).replace(f"order {ring.order}\n", f"order {order}\n", 1)
    return parse_system(text)


def perturbed(G, rng):
    """G (descending leads) rewritten without changing its ideal or lead ideal."""
    ring = G[0].ring
    p = ring.modulus.p

    def unit():
        return int(rng.integers(2, p))

    out = []
    for i, g in enumerate(G):
        for j in range(i + 1, len(G)):  # members with lower leads
            if rng.random() < 0.5:
                g = poly_add_scaled(g, unit(), G[j])
        out.append(poly_scale(g, unit()))
    t = (1,) + (0,) * (ring.n_vars - 1)  # the first variable
    out.append(poly_scale(poly_mul_mon(t, G[-1]), unit()))  # non-minimal t*g
    out.append(poly_add_scaled(G[0], unit(), G[-1]))  # duplicate lead
    return [out[k] for k in rng.permutation(len(out))]


@pytest.mark.parametrize("order", ["lex", "deglex", "grevlex"])
@pytest.mark.parametrize("p", [7, 65537, 2147483629])
def test_interreduce_recovers_reduced_basis(order, p):
    rng = np.random.default_rng(p % 1000 + len(order))
    config = PipelineConfig()

    def interreduce(polys):
        # F4 hands over its basis: one set of monic members
        soa = soa_pack([poly_monic(f) for f in polys], ring)
        return [f.terms for f in _interreduce(soa, config)]

    for gen, n in ((gen_cyclic, 3), (gen_katsura, 3), (gen_cyclic, 4)):
        ring, polys = in_order(*gen(n, p), order)
        G = f4_groebner(polys, ring)
        assert is_groebner(G, ring).ok
        want = [f.terms for f in G]
        assert interreduce(G) == want
        assert [f.terms for f in reduce_basis(G, ring)] == want
        messy = perturbed(G, rng)
        assert interreduce(messy) == want
        assert [f.terms for f in reduce_basis(messy, ring)] == want
    one = [poly_scale(G[0], 3)]
    assert interreduce(one) == [G[0].terms]
    assert interreduce([]) == []


def test_interreduce_one_lead_per_mask_chunk(monkeypatch):
    ring, polys = gen_cyclic(4, 65537)
    G = f4_groebner(polys, ring)
    messy = perturbed(G, np.random.default_rng(4))
    # every chunk of the divisibility mask holds one lead, so each boundary is crossed
    monkeypatch.setattr(monomials, "_DIVISOR_CELLS", 1)
    soa = soa_pack([poly_monic(f) for f in messy], ring)
    assert [f.terms for f in _interreduce(soa, PipelineConfig())] == [f.terms for f in G]


def one_shifted_row():
    """One S-half row: basis member 0 times y."""
    return RowMeta.of(RowRole.SPOLY_HALF.value, 0, [0], np.array([[0, 1]]))


def test_verify_kernel_syzygy_duplicate_rows():
    g = poly_parse("x*y - 1", R2)
    basis = soa_pack([g], R2)
    rows = RowMeta.of(RowRole.SPOLY_HALF.value, [0, 1], [0, 0], np.array([[0, 1], [0, 1]]))
    plan = compile_batch(rows, basis, Closure.SUPPORT_ONLY)
    kb = left_kernel(csr_from_plan(plan, M7), count=4, seed=1)
    assert kb.dimension_found == 1
    rep = verify_kernel_syzygy(plan, [g], kb)
    assert rep.ok
    # empty kernel is vacuously fine
    kb.vectors, kb.dimension_found = [], 0
    assert verify_kernel_syzygy(plan, [g], kb).ok
    # a recombination that leaves a single term is caught and printed
    x = poly_parse("x", R2)
    plan = compile_batch(one_shifted_row(), soa_pack([x], R2), Closure.SUPPORT_ONLY)
    rep = verify_kernel_syzygy(plan, [x], KernelBasis([np.array([3], dtype=np.uint64)], 1, ()))
    assert not rep.ok and rep.detail == "kernel vector 0 recombines to 3*x*y"


def test_kernel_checks_both_paths_on_batches():
    # run the toy GB through F4; its zero reductions force genuine syzygies
    gb = f4_groebner([poly_parse("x^2 - y", R2), poly_parse("x*y - 1", R2)], R2)
    state = GroebnerState(R2)
    for f in gb:
        update_pairs(state, soa_pack([f], R2))
    seen_kernel_vector = False
    while state.pairs:
        basis_before = soa_polys(state.basis)
        plan, ech, _ = f4_step(state)
        checks = groebner_kernel_checks(plan, basis_before, R2.modulus, ech.rank, seed=3)
        for engine, report, kb in checks:
            assert report.ok, f"{engine}: {report.detail}"
            if kb is not None and kb.dimension_found:
                seen_kernel_vector = True
    assert seen_kernel_vector


def test_kernel_checks_report_only_probabilistic_failures(monkeypatch):
    f, g = poly_parse("x^2 - y", R2), poly_parse("x*y - 1", R2)
    plan = compile_batch(one_shifted_row(), soa_pack([f, g], R2))
    rank = psge_reduce(csr_from_plan(plan, R2.modulus)).rank

    def failing(exc):
        def solve(*args, **kwargs):
            raise exc
        return solve

    monkeypatch.setattr("fpgb.groebner.wiedemann_solve", failing(ProbabilisticFailureError("short")))
    engine, report, kb = groebner_kernel_checks(plan, [f, g], R2.modulus, rank)[1]
    assert engine == "wiedemann" and not report.ok and kb is None
    assert report.detail.startswith("short")
    monkeypatch.setattr("fpgb.groebner.wiedemann_solve", failing(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        groebner_kernel_checks(plan, [f, g], R2.modulus, rank)


def katsura3_batches():
    """The ring and (basis_before, plan, echelon) of every F4 batch of katsura-3 mod 101."""
    ring, polys = gen_katsura(3, 101)
    batches = []
    f4_groebner(polys, ring, PipelineConfig(), lambda b, plan, ech, st: batches.append((soa_polys(b), plan, ech)))
    return ring, batches


def test_kernel_checks_sort_each_batch_matrix_once(monkeypatch):
    from fpgb import sparselin

    ring, batches = katsura3_batches()
    sorts = []
    real_sort = sparselin.radix_sort
    monkeypatch.setattr(sparselin, "radix_sort", lambda *a, **k: sorts.append(1) or real_sort(*a, **k))
    nullities = []
    for basis_before, plan, ech in batches:
        sorts.clear()
        checks = groebner_kernel_checks(plan, basis_before, ring.modulus, ech.rank, seed=3)
        assert all(report.ok for _, report, _ in checks)
        # one sort for the transpose, which both engines and Wiedemann's
        # framing of it (A itself) share
        assert len(sorts) == 1
        nullities.append(plan.n_rows - ech.rank)
    assert 0 in nullities and max(nullities) > 0


def test_kernel_checks_refuse_a_batch_above_the_dense_cap(monkeypatch):
    ring, batches = katsura3_batches()
    basis_before, plan, ech = max(batches, key=lambda t: max(t[1].n_rows, t[1].n_cols))
    cap = max(plan.n_rows, plan.n_cols) - 1
    monkeypatch.setattr(sparselin, "DENSE_CAP", cap)  # read at call time

    def no_solve(*args, **kwargs):
        raise AssertionError("a kernel was computed above the dense cap")

    monkeypatch.setattr(sparselin, "wiedemann_solve", no_solve)
    monkeypatch.setattr(groebner, "wiedemann_solve", no_solve)
    # the dense check runs first and refuses before it allocates a dense array
    monkeypatch.setattr(sparselin.CsrMatrix, "to_dense", no_solve)
    monkeypatch.setattr(sparselin, "dense_right_nullspace", no_solve)
    with pytest.raises(SizeCapError, match=f"capped at {cap}, got a {plan.n_rows}x{plan.n_cols} matrix"):
        groebner_kernel_checks(plan, basis_before, ring.modulus, ech.rank, seed=3)


def test_kernel_checks_fail_both_engines_short_of_the_nullity():
    ring, batches = katsura3_batches()
    basis_before, plan, ech = next(t for t in batches if t[1].n_rows - t[2].rank >= 2)
    nullity = plan.n_rows - ech.rank
    # a rank one too low claims one kernel vector more than exists
    (_, dense, _), (_, krylov, kb) = groebner_kernel_checks(
        plan, basis_before, ring.modulus, ech.rank - 1, seed=3
    )
    assert not dense.ok and dense.detail == f"found {nullity} of nullity {nullity + 1}"
    assert not krylov.ok and kb is None
    assert krylov.detail.startswith(f"found {nullity} of {nullity + 1} kernel vectors")


def test_kernel_checks_fail_the_dense_engine_past_the_nullity():
    ring, batches = katsura3_batches()
    basis_before, plan, ech = next(t for t in batches if t[1].n_rows - t[2].rank >= 2)
    nullity = plan.n_rows - ech.rank
    # a rank one too high claims one kernel vector fewer than exists; the
    # exact route returns the whole kernel, so its count shows the surplus
    (engine, dense, kb), _ = groebner_kernel_checks(
        plan, basis_before, ring.modulus, ech.rank + 1, seed=3
    )
    assert engine == "dense" and kb.dimension_found == nullity
    assert not dense.ok and dense.detail == f"found {nullity} of nullity {nullity - 1}"


def test_kernel_checks_fail_the_dense_engine_at_a_claimed_nullity_of_zero():
    ring, polys = gen_cyclic(4, 101)
    batches = []
    f4_groebner(polys, ring, PipelineConfig(), lambda b, plan, ech, st: batches.append((soa_polys(b), plan, ech)))
    basis_before, plan, ech = batches[2]
    assert (plan.n_rows, plan.n_rows - ech.rank) == (7, 1)
    # a rank overstated to the full row count claims no kernel at all; the
    # exact route still returns the one vector that exists
    (engine, dense, kb), _ = groebner_kernel_checks(
        plan, basis_before, ring.modulus, plan.n_rows, seed=3
    )
    assert engine == "dense" and kb.dimension_found == 1
    assert not dense.ok and dense.detail == "found 1 of nullity 0"


def test_kernel_checks_read_prebuilt_shifted_rows(monkeypatch):
    ring, batches = katsura3_batches()
    for basis_before, plan, ech in batches:
        meta = plan.row_meta
        shifted = [
            poly_mul_mon(tuple(t), basis_before[k])
            for t, k in zip(meta.shift.tolist(), meta.basis_index.tolist())
        ]
        want = groebner_kernel_checks(plan, basis_before, ring.modulus, ech.rank, seed=3)
        with monkeypatch.context() as m:
            m.setattr(groebner, "poly_mul_mon", None)  # any call would fail
            got = groebner_kernel_checks(plan, basis_before, ring.modulus, ech.rank, 3, shifted)
        assert [(e, r) for e, r, _ in got] == [(e, r) for e, r, _ in want]


def merge_loop_syzygy(plan, basis, kernel):
    """The per-vector merge loop that verify_kernel_syzygy replaced, kept as its oracle."""
    ring = plan.ring
    for n, v in enumerate(kernel.vectors):
        if len(v) != plan.n_rows:
            return groebner.GroebnerReport(False, f"kernel vector {n} has wrong length")
        total = Poly(ring)
        meta = zip(plan.row_meta.shift.tolist(), plan.row_meta.basis_index.tolist())
        for i, (shift, k) in enumerate(meta):
            c = int(v[i])
            if c:
                total = poly_add_scaled(total, c, poly_mul_mon(tuple(shift), basis[k]))
        if not total.is_zero():
            return groebner.GroebnerReport(False, f"kernel vector {n} recombines to {total}")
    return groebner.GroebnerReport(True)


_KERNEL_BATCHES = {}


def kernel_batches(order, seed):
    """(basis_before, plan, left kernel) of every batch of one random system."""
    key = (order, seed)
    if key not in _KERNEL_BATCHES:
        ring, polys = gen_random_quadratic(3, 3, 0.5, seed, 101)
        text = format_system(ring, polys).replace(f"order {ring.order}\n", f"order {order}\n", 1)
        ring, polys = parse_system(text)
        out = []

        def on_batch(basis_before, plan, ech, st):
            A = csr_from_plan(plan, ring.modulus)
            out.append((soa_polys(basis_before), plan, left_kernel(A, A.n_rows - ech.rank, seed=0).vectors))

        f4_groebner(polys, ring, PipelineConfig(), on_batch)
        _KERNEL_BATCHES[key] = out
    return _KERNEL_BATCHES[key]


def test_dict_recombination_matches_merge_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(order=st.sampled_from(ORDERS), seed=st.integers(0, 3), data=st.data())
    def check(order, seed, data):
        batches = kernel_batches(order, seed)
        basis, plan, kernel = data.draw(st.sampled_from(batches))
        p = plan.ring.modulus.p
        coeff = st.integers(0, p - 1)
        vectors = []
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["kernel", "perturbed", "random"]))
            if kind == "random" or not kernel:
                v = np.array(data.draw(st.lists(coeff, min_size=plan.n_rows, max_size=plan.n_rows)),
                             dtype=np.uint64)
            else:
                cs = data.draw(st.lists(coeff, min_size=len(kernel), max_size=len(kernel)))
                v = sum((np.uint64(c) * w for c, w in zip(cs, kernel)), np.zeros(plan.n_rows, np.uint64))
                v %= np.uint64(p)
                if kind == "perturbed":
                    i = data.draw(st.integers(0, plan.n_rows - 1))
                    v[i] = (int(v[i]) + data.draw(st.integers(1, p - 1))) % p
            vectors.append(v)
        kb = KernelBasis(vectors, len(vectors), ())
        want = merge_loop_syzygy(plan, basis, kb)
        got = verify_kernel_syzygy(plan, basis, kb)
        assert (got.ok, got.detail) == (want.ok, want.detail)

    check()


def test_verify_kernel_syzygy_catches_each_mutation():
    # every katsura-4 batch with a kernel passes as computed and fails with
    # one kernel entry changed, one row's shift moved by x0, or one row's
    # basis index pointing at another member.  The batches use 43 to 56
    # rows, so matmul_mod's product is float64 at 65537 and the 16-bit
    # split at 2147483629
    for p in (65537, 2147483629):
        ring, polys = gen_katsura(4, p)
        batches = []

        def on_batch(basis_before, plan, ech, st):
            if plan.n_rows > ech.rank:
                A = csr_from_plan(plan, ring.modulus)
                batches.append((soa_polys(basis_before), plan, left_kernel(A, A.n_rows - ech.rank).vectors))

        f4_groebner(polys, ring, PipelineConfig(), on_batch)
        assert len(batches) >= 3
        for basis, plan, vectors in batches:
            kb = KernelBasis(vectors, len(vectors), ())
            assert verify_kernel_syzygy(plan, basis, kb).ok
            n = len(vectors) - 1
            v = vectors[n]
            i = int(np.flatnonzero(v)[0])
            flipped = v.copy()
            flipped[i] = (int(v[i]) + 1) % p
            meta = plan.row_meta.rows.copy()
            meta[i, 3] += 1  # the shift's first exponent
            moved = dataclasses.replace(plan, row_meta=RowMeta(meta))
            meta = plan.row_meta.rows.copy()
            meta[i, 2] = (meta[i, 2] + 1) % len(basis)
            other = dataclasses.replace(plan, row_meta=RowMeta(meta))
            # a changed row fails the first vector that uses it
            first = next(k for k, w in enumerate(vectors) if w[i])
            for got, bad in (
                (verify_kernel_syzygy(plan, basis, KernelBasis([*vectors[:n], flipped], n + 1, ())), n),
                (verify_kernel_syzygy(moved, basis, kb), first),
                (verify_kernel_syzygy(other, basis, kb), first),
            ):
                assert not got.ok
                assert got.detail.startswith(f"kernel vector {bad} recombines to ")


def test_random_quadratic_oracle_sample():
    for seed in range(4):
        ring, polys = gen_random_quadratic(3, 3, 0.5, seed, 101)
        gb_f4 = f4_groebner(polys, ring)
        gb_b = buchberger_reference(polys, ring)
        assert gb_text(gb_f4) == gb_text(gb_b)
        assert is_groebner(gb_f4, ring).ok


def test_f4_word_and_packed_keys_agree_on_random_lex_and_deglex_systems():
    """F4 at one worker, on word keys, and at two, on packed keys: the same
    plan for every batch and the same basis, or the same cap error."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3),
        order=st.sampled_from(("lex", "deglex")),
        p=st.sampled_from((7, 65537)),
        data=st.data(),
    )
    def check(n, order, p, data):
        ring = Ring([f"x{i}" for i in range(n)], order, FieldModulus(p))
        mon = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
        poly = st.dictionaries(mon, st.integers(1, p - 1), min_size=1, max_size=3)
        system = [poly_from_dict(d, ring) for d in data.draw(st.lists(poly, min_size=1, max_size=3))]

        def run(workers):
            plans = []

            def on_batch(basis, plan, echelon, stats):
                plans.append(symbolic.plan_to_text(plan))

            try:
                basis = f4_groebner(system, ring, PipelineConfig(workers=workers), on_batch)
            except SizeCapError as e:
                return plans, f"SizeCapError: {e}"
            return plans, gb_text(basis)

        assert run(1) == run(2)

    # a small key cap keeps the lex blow-ups cheap; they stay in the draws
    with mock.patch.object(symbolic, "KEY_CAP", 1 << 14):
        check()


def test_f4_lex_refusal_is_a_size_cap_error():
    # F4 refuses this tiny lex system: the reduced lex basis has three members
    # of degree at most 8, but one batch's closure passes KEY_CAP
    ring = Ring(["x0", "x1", "x2"], "lex", M7)
    system = [poly_parse(t, ring) for t in ("x0^2 + x1^2*x2", "x0*x1^2 + 2", "x0*x2 + x0*x1 + 1")]
    with pytest.raises(SizeCapError) as e:
        f4_groebner(system, ring)
    assert str(e.value) == "batch key volume M = 10165682 exceeds 8388608 keys"
