"""Batch compiler: worked micro-examples, closure fixed points, determinism."""

import hashlib
from unittest import mock

import numpy as np
import pytest

from fpgb import groebner, monomials, symbolic
from fpgb.bench import PipelineConfig, basis_digest
from fpgb.bulk import ExecPolicy, radix_sort, unique_sorted
from fpgb.errors import (
    LaneOverflowError,
    MissingKeyError,
    PropertyViolationError,
    SizeCapError,
    UncoverableTargetError,
)
from fpgb.fp import FieldModulus
from fpgb.groebner import f4_groebner
from fpgb.monomials import ORDERS, Ring, key_pack_vec, key_unpack_vec, mon_div, mon_key_pack
from fpgb.polynomials import (
    poly_from_dict,
    poly_mul_mon,
    poly_normalize,
    poly_parse,
    soa_pack,
    soa_polys,
)
from fpgb.symbolic import (
    Closure,
    LayoutPlan,
    PlanCounters,
    RowMeta,
    RowRole,
    closure_expand,
    compile_batch,
    decode_row,
    plan_to_text,
    row_lead_cols,
    select_rows,
)
from fpgb.systems import format_system, gen_cyclic, gen_katsura, gen_random_quadratic, parse_system

M7 = FieldModulus(7)
R2 = Ring(["x", "y"], "grevlex", M7)

POLICIES = [
    ExecPolicy(1),
    ExecPolicy(2),
    ExecPolicy(4),
    ExecPolicy(8),
    ExecPolicy(4, lane_order_seed=3),
    ExecPolicy(8, lane_order_seed=11),
]


def two_poly_basis():
    f = poly_parse("x^2 - y", R2)
    g = poly_parse("x*y - 1", R2)
    return soa_pack([f, g], R2)


# the pair (0, 1) of two_poly_basis as (lcm, i, j) columns: lcm(x^2, x*y) = x^2*y
SPOLY_PAIR = ([(2, 1)], [0], [1])


def spoly_pair_rows(basis):
    return select_rows(*SPOLY_PAIR, basis)


def rows_of(role, provenance, basis_index, shift):
    """A row table from plain lists, for hand-built batches."""
    return RowMeta.of(role.value, provenance, basis_index, np.array(shift, dtype=np.int64))


def test_select_rows_example():
    basis = two_poly_basis()
    rows = spoly_pair_rows(basis)
    assert rows.shift.tolist() == [[0, 1], [1, 0]] and rows.basis_index.tolist() == [0, 1]
    assert rows.role.tolist() == [RowRole.SPOLY_HALF.value] * 2
    assert rows.provenance.tolist() == [0, 0]


def test_select_rows_empty_targets():
    basis = two_poly_basis()
    rows = select_rows(np.zeros((0, 2), dtype=np.int64), [], [], basis)
    assert len(rows) == 0 and rows.shift.shape == (0, 2)


def test_select_rows_rejects_unknown_basis_index():
    basis = two_poly_basis()
    with pytest.raises(UncoverableTargetError, match="unknown basis index"):
        select_rows([(2, 1)], [0], [2], basis)


def select_rows_scalar(lcm, i, j, basis):
    """The per-row expansion select_rows replaced, kept as its oracle.

    Each half is (role, provenance, shift, basis index) with the shift from
    mon_div; rows sort by (role, provenance, mon_key_pack(shift), basis
    index), the old per-row sort key.
    """
    ring = basis.ring
    rows = []
    for pid, (m, a, b) in enumerate(zip(lcm, i, j)):
        for k in (a, b):
            lead = tuple(int(x) for x in basis.exps[int(basis.offset[k])])
            rows.append((RowRole.SPOLY_HALF.value, pid, mon_div(tuple(m), lead), k))
    rows.sort(key=lambda r: (r[0], r[1], mon_key_pack(r[2], ring), r[3]))
    return rows


def test_select_rows_matches_scalar_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(n=st.integers(1, 4), order=st.sampled_from(ORDERS), data=st.data())
    def check(n, order, data):
        ring = Ring([f"x{v}" for v in range(n)], order, M7)
        mono = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
        terms = st.dictionaries(mono, st.integers(1, 6), min_size=1, max_size=3)
        drawn = data.draw(st.lists(terms, min_size=1, max_size=6))
        polys = [poly_from_dict(t, ring) for t in drawn]
        # repeated members give equal leads, so equal lcms at different indices
        polys += data.draw(st.lists(st.sampled_from(polys), max_size=2))
        basis = soa_pack(polys, ring)
        index = st.integers(0, len(polys) - 1)
        # i == j, i > j and repeated pairs all occur; an extra factor keeps
        # the lcm a multiple of both leads
        pairs = data.draw(st.lists(st.tuples(index, index, mono), max_size=8))
        lcm = [
            tuple(max(a, b) + e for a, b, e in zip(polys[i].lm(), polys[j].lm(), extra))
            for i, j, extra in pairs
        ]
        i = [a for a, _, _ in pairs]
        j = [b for _, b, _ in pairs]
        got = select_rows(np.array(lcm, dtype=np.int64).reshape(-1, n), i, j, basis)
        assert got.rows.dtype == np.int64 and got.rows.shape == (2 * len(pairs), n + 3)
        cols = (got.role, got.provenance, got.shift, got.basis_index)
        rows = [(r, pid, tuple(t), k) for r, pid, t, k in zip(*(c.tolist() for c in cols))]
        assert rows == select_rows_scalar(lcm, i, j, basis)

    check()


def test_compile_support_only_worked_example():
    basis = two_poly_basis()
    rows = spoly_pair_rows(basis)
    plan = compile_batch(rows, basis, Closure.SUPPORT_ONLY)
    # dict = {x^2 y > y^2 > x}
    want_dict = [mon_key_pack(m, R2) for m in [(2, 1), (0, 2), (1, 0)]]
    assert [tuple(k) for k in plan.dict_keys.tolist()] == want_dict
    assert plan.counters.N == 3 and plan.counters.M == 4 and plan.counters.nnz == 4
    assert plan.row_ptr.tolist() == [0, 2, 4]
    assert plan.col_ind.tolist() == [0, 1, 0, 2]
    assert plan.val.tolist() == [1, 6, 1, 6]
    r0 = decode_row(plan, 0)
    assert r0.terms == poly_parse("x^2*y - y^2", R2).terms
    r1 = decode_row(plan, 1)
    assert r1.terms == poly_parse("x^2*y - x", R2).terms


def test_compile_empty_rows():
    basis = two_poly_basis()
    plan = compile_batch(select_rows(np.zeros((0, 2), dtype=np.int64), [], [], basis), basis)
    assert plan.counters.N == 0 and plan.counters.M == 0
    assert plan.row_ptr.tolist() == [0]
    assert plan.counters.r == 0


def test_empty_list_compiles_like_a_zero_row_table():
    basis = two_poly_basis()
    zero_rows = select_rows(np.zeros((0, 2), dtype=np.int64), [], [], basis)
    text = plan_to_text(compile_batch([], basis))
    assert text == plan_to_text(compile_batch(zero_rows, basis))
    assert "counters r=0 N=0 M=0 " in text
    assert text.endswith("\ndict_keys \nrow_meta \n")


def test_one_step_closure_adds_reducer_row():
    # with h = y^2 - 1 in the basis, dict monomial y^2 picks up a closure row
    f = poly_parse("x^2 - y", R2)
    g = poly_parse("x*y - 1", R2)
    h = poly_parse("y^2 - 1", R2)
    basis = soa_pack([f, g, h], R2)
    rows = spoly_pair_rows(basis)
    plan = compile_batch(rows, basis, Closure.ONE_STEP_REDUCTION)
    roles = plan.row_meta.role.tolist()
    assert roles == [RowRole.SPOLY_HALF.value, RowRole.SPOLY_HALF.value, RowRole.REDUCER.value]
    assert plan.row_meta.shift[2].tolist() == [0, 0] and plan.row_meta.basis_index[2] == 2
    # dictionary gained the constant monomial
    assert tuple(plan.dict_keys[-1].tolist()) == mon_key_pack((0, 0), R2)
    assert plan.counters.closure_rounds == 1


def test_key_cap_is_checked_before_keys_are_packed(monkeypatch):
    # the S-halves hold 4 keys and the closure row for y^2 - 1 two more: M = 6;
    # grevlex and lex at one lane take the one-word key route, two lanes the
    # packed-key route, and all four check the cap at one point
    gathered, packed_route = [], []
    gather, materialize = symbolic._gather, symbolic._materialize

    def counting_gather(rows, basis, policy, emitted):
        out = gather(rows, basis, policy, emitted)
        gathered.append(len(out[2]))
        return out

    def spy_materialize(*args, **kwargs):
        packed_route.append(True)
        return materialize(*args, **kwargs)

    monkeypatch.setattr(symbolic, "_gather", counting_gather)
    monkeypatch.setattr(symbolic, "_materialize", spy_materialize)
    for order, policy, word_route in (
        ("grevlex", ExecPolicy(1), True),
        ("grevlex", ExecPolicy(2), False),
        ("lex", ExecPolicy(1), True),
        ("lex", ExecPolicy(2), False),
    ):
        ring = Ring(["x", "y"], order, M7)
        basis = soa_pack([poly_parse(t, ring) for t in ("x^2 - y", "x*y - 1", "y^2 - 1")], ring)
        rows = spoly_pair_rows(basis)
        gathered.clear()
        packed_route.clear()
        monkeypatch.setattr(symbolic, "KEY_CAP", 6)
        assert compile_batch(rows, basis, policy=policy).counters.M == 6
        assert gathered == [4, 2] and bool(packed_route) is not word_route
        for cap, want_gathered in ((5, [4]), (3, [])):
            gathered.clear()
            monkeypatch.setattr(symbolic, "KEY_CAP", cap)
            M = 6 if want_gathered else 4
            with pytest.raises(SizeCapError, match=f"M = {M} exceeds {cap} keys"):
                compile_batch(rows, basis, policy=policy)
            assert gathered == want_gathered  # the part over the cap is never gathered


def packed_key_plan(rows, basis, closure=Closure.ONE_STEP_REDUCTION):
    """compile_batch at one lane on the packed-key route, the one-word key turned off."""
    with mock.patch.object(symbolic._WordKeys, "fit", return_value=None):
        return compile_batch(rows, basis, closure)


def outcome(compile_, *args):
    """The plan dump, or the cap or lane error a compile ends in."""
    try:
        return plan_to_text(compile_(*args))
    except (SizeCapError, LaneOverflowError) as e:
        return f"{type(e).__name__}: {e}"


def lex_rows_fit(polys, ks, shifts, b):
    """Whether every term of every row keeps each exponent below 2^b."""
    return all(
        e + t < 1 << b for k, shift in zip(ks, shifts) for m, _ in polys[k].terms for e, t in zip(m, shift)
    )


def test_word_keys_match_packed_keys_on_random_row_tables():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 4),
        order=st.sampled_from(ORDERS),
        p=st.sampled_from((7, 65537, 2**31 - 19)),
        closure=st.sampled_from(Closure),
        lanes=st.sampled_from(("small", "wide", "reach")),
        data=st.data(),
    )
    def check(n, order, p, closure, lanes, data):
        ring = Ring([f"x{v}" for v in range(n)], order, FieldModulus(p))
        lex = order == "lex"
        # lex word lanes are b bits wide; its wide draws reach up to and past
        # 2^b - 1, with basis exponents kept within the packed key's lanes
        b = min(16, 63 // n)
        small = st.integers(0, 3)
        big = st.integers((1 << b) - 3, 1 << b)
        exp = st.one_of(small, big) if lex and lanes == "wide" else small
        mono = st.lists(exp, min_size=n, max_size=n).map(tuple)
        term_mono = mono.map(lambda m: tuple(min(e, 2**16 - 1) for e in m))
        terms = st.dictionaries(term_mono, st.integers(1, p - 1), min_size=1, max_size=4)
        polys = [poly_from_dict(t, ring) for t in data.draw(st.lists(terms, min_size=1, max_size=5))]
        row = st.tuples(
            st.sampled_from([r.value for r in RowRole]),
            st.integers(0, 3),
            st.integers(0, len(polys) - 1),
            mono,
        )
        drawn = data.draw(st.lists(row, min_size=1, max_size=8))
        if lex and lanes == "reach" and n > 1:
            # x0^2 + x0*x1 as a given row; x0 + x1^K's closure row for x0*x1
            # has the tail x1^(K + 1), at or past the lanes' last value
            closure = Closure.ONE_STEP_REDUCTION
            K = data.draw(st.sampled_from(((1 << b) - 2, (1 << b) - 1)))
            polys += [poly_parse("x0^2 + x0*x1", ring), poly_parse(f"x0 + x1^{K}", ring)]
            drawn.append((RowRole.SPOLY_HALF.value, 0, len(polys) - 2, (0,) * n))
        basis = soa_pack(polys, ring)
        role, provenance, ks, shifts = zip(*drawn)
        rows = RowMeta.of(role, provenance, ks, np.array(shifts, dtype=np.int64))
        fit = symbolic._WordKeys.fit(rows, basis, ExecPolicy())
        assert (fit is not None) is (not lex or lex_rows_fit(polys, ks, shifts, b))
        # under lex a closure can step down a power of 2^16 one variable at a
        # time; a small DICT_CAP stops those chains early on both routes
        with mock.patch.object(symbolic, "DICT_CAP", 256 if lex else symbolic.DICT_CAP):
            try:
                want = packed_key_plan(rows, basis, closure)
            except (SizeCapError, LaneOverflowError):
                assert outcome(compile_batch, rows, basis, closure) == outcome(
                    packed_key_plan, rows, basis, closure
                )
                return
            assert plan_to_text(compile_batch(rows, basis, closure)) == plan_to_text(want)
        # the caps refuse exactly the same batches, with the same message;
        # DICT_CAP bounds the dictionary only after a closure round
        c = want.counters
        for cap_name, size, checked in (("KEY_CAP", c.M, True), ("DICT_CAP", c.N, c.closure_rounds > 0)):
            for cap in (size, size - 1):
                with mock.patch.object(symbolic, cap_name, cap):
                    got = outcome(compile_batch, rows, basis, closure)
                    assert got == outcome(packed_key_plan, rows, basis, closure)
                    assert got.startswith("SizeCapError") is (checked and cap < size)

    check()


@pytest.mark.parametrize("n, b, packed_overflows", [(2, 16, True), (4, 15, False)])
def test_lex_closure_past_the_word_lanes_restarts_on_packed_keys(n, b, packed_overflows, monkeypatch):
    # the given row x0^2 + x0*x1 fits b-bit lanes; the closure row for x0*x1
    # is (x0 + x1^K) * x1, whose tail x1^(K + 1) passes them at K = 2^b - 1.
    # That round is never materialized on word keys: the batch starts again
    # on packed keys, whose 16-bit lanes hold x1^(2^15) at n = 4 but not
    # x1^(2^16) at n = 2, where they raise LaneOverflowError as before
    ring = Ring([f"x{v}" for v in range(n)], "lex", FieldModulus(65537))
    rows = rows_of(RowRole.SPOLY_HALF, 0, [0], [[0] * n])
    packed_route = []
    materialize = symbolic._materialize

    def spy_materialize(*args, **kwargs):
        packed_route.append(True)
        return materialize(*args, **kwargs)

    monkeypatch.setattr(symbolic, "_materialize", spy_materialize)
    for K, restart in (((1 << b) - 2, False), ((1 << b) - 1, True)):
        basis = soa_pack([poly_parse(t, ring) for t in ("x0^2 + x0*x1", f"x0 + x1^{K}")], ring)
        assert symbolic._WordKeys.fit(rows, basis, ExecPolicy()).b == b
        packed_route.clear()
        got = outcome(compile_batch, rows, basis)
        assert bool(packed_route) is restart
        assert got == outcome(packed_key_plan, rows, basis)
        assert got.startswith("LaneOverflowError") is (restart and packed_overflows)
        # M = 4 keys and N = 3 monomials; every cap below them refuses the
        # batch on both routes with one message
        for cap_name in ("KEY_CAP", "DICT_CAP"):
            for cap in range(1, 5):
                with mock.patch.object(symbolic, cap_name, cap):
                    assert outcome(compile_batch, rows, basis) == outcome(packed_key_plan, rows, basis)


@pytest.mark.parametrize("order", ["grevlex", "deglex"])
@pytest.mark.parametrize("n, top, b", [(6, 300, 9), (7, 200, None), (20, 6, 3), (15, 12, None)])
def test_word_key_width_edge(order, n, top, b):
    # b * (n + 1) is 63 (a one-word key) or 64 (packed keys); x0^(top - 2) *
    # (x0*x1 + x2) gives D = top, and its x2 term picks up a closure row
    ring = Ring([f"x{v}" for v in range(n)], order, FieldModulus(65537))
    basis = soa_pack([poly_parse(t, ring) for t in ("x0*x1 + 3*x2", "x2 - x3")], ring)
    shift = np.zeros((1, n), dtype=np.int64)
    shift[0, 0] = top - 2
    rows = RowMeta.of(RowRole.SPOLY_HALF.value, 0, [0], shift)
    fit = symbolic._WordKeys.fit(rows, basis, ExecPolicy())
    assert (fit.b if fit else None) == b
    plan = compile_batch(rows, basis)
    assert plan.counters.closure_rounds == 1
    assert plan_to_text(plan) == plan_to_text(packed_key_plan(rows, basis))


@pytest.mark.parametrize("order", ["grevlex", "deglex"])
def test_word_key_degree_edge(order):
    # x^40000 + y^40000 times x^(D - 40000): at D = 2^16 - 1 the one-word key
    # runs; at D = 2^16 the lead's x lane overflows and the packed route raises
    ring = Ring(["x", "y"], order, FieldModulus(65537))
    basis = soa_pack([poly_parse("x^40000 + y^40000", ring)], ring)
    for top, b in ((2**16 - 1, 16), (2**16, None)):
        rows = RowMeta.of(RowRole.SPOLY_HALF.value, 0, [0], np.array([[top - 40000, 0]]))
        fit = symbolic._WordKeys.fit(rows, basis, ExecPolicy())
        assert (fit.b if fit else None) == b
        got = outcome(compile_batch, rows, basis)
        assert got == outcome(packed_key_plan, rows, basis)
        assert got.startswith("LaneOverflowError") is (b is None)


def test_word_keys_leave_other_batches_to_packed_keys():
    basis = two_poly_basis()
    rows = spoly_pair_rows(basis)
    assert symbolic._WordKeys.fit(rows, basis, ExecPolicy()) is not None
    assert symbolic._WordKeys.fit(rows, basis, ExecPolicy(2)) is None
    assert symbolic._WordKeys.fit(RowMeta(rows.rows[:0]), basis, ExecPolicy()) is None
    # lex at one lane takes 16-bit word lanes while every row fits them;
    # at two lanes it keeps the packed keys
    lex = Ring(["x", "y"], "lex", M7)
    lex_basis = soa_pack([poly_parse(t, lex) for t in ("x^2 - y", "x*y - 1")], lex)
    lex_rows = spoly_pair_rows(lex_basis)
    assert symbolic._WordKeys.fit(lex_rows, lex_basis, ExecPolicy()).b == 16
    assert symbolic._WordKeys.fit(lex_rows, lex_basis, ExecPolicy(2)) is None
    # x*y - 1 times y^65534 keeps y's lane at 2^16 - 1; one more y passes it
    for top, fits in ((2**16 - 2, True), (2**16 - 1, False)):
        wide = rows_of(RowRole.SPOLY_HALF, 0, [1], [[0, top]])
        assert (symbolic._WordKeys.fit(wide, lex_basis, ExecPolicy()) is not None) is fits
    # negative shifts and basis indices outside the basis stay on the packed
    # route, which raises on them as it always has
    for k, shift in ((1, [[2, -1]]), (0, [[0, -1]]), (2, [[0, 0]]), (-1, [[0, 0]])):
        bad = rows_of(RowRole.SPOLY_HALF, 0, [k], shift)
        assert symbolic._WordKeys.fit(bad, basis, ExecPolicy()) is None
        with pytest.raises((LaneOverflowError, IndexError)):
            compile_batch(bad, basis)


def test_word_key_join_names_a_missing_key_by_its_packed_key():
    basis = two_poly_basis()
    rows = spoly_pair_rows(basis)
    words = symbolic._WordKeys.fit(rows, basis, ExecPolicy())
    keys = words.materialize(rows, basis, 0)[1]
    dict_asc = words.unique(keys)
    assert np.array_equal(dict_asc[words.join(keys, dict_asc)], keys)
    # without x^2*y, the greatest key, every row's lead is missing
    with pytest.raises(MissingKeyError, match=rf"key \({mon_key_pack((2, 1), R2)[0]},\) absent"):
        words.join(keys, dict_asc[:-1])


def test_closure_expand_fixed_point_example():
    basis = two_poly_basis()
    rows = spoly_pair_rows(basis)
    plan = compile_batch(rows, basis, Closure.SUPPORT_ONLY)
    # x^2 y leads an existing row; y^2 and x have no divisor among {x^2, x y}
    assert len(assert_same_with_word_exponents(plan.dict_keys[1:], basis)) == 0


def test_closure_expand_chain_example():
    # dict {x^3}, basis {x - 1}: rounds cover x^3, then x^2, then x, then 1
    rx = Ring(["x"], "grevlex", M7)
    gb = soa_pack([poly_parse("x - 1", rx)], rx)
    dict_keys = np.asarray([mon_key_pack((3,), rx)], dtype=np.uint64)
    rows = assert_same_with_word_exponents(dict_keys, gb)
    assert rows.shift.tolist() == [[2]] and rows.basis_index.tolist() == [0]
    # driving the same rule through compile_batch reaches the full fixed point
    seed_rows = rows_of(RowRole.SPOLY_HALF, 0, [0], [[2]])
    plan = compile_batch(seed_rows, gb, Closure.ONE_STEP_REDUCTION)
    mons = [tuple(k) for k in plan.dict_keys.tolist()]
    want = [mon_key_pack((e,), rx) for e in (3, 2, 1, 0)]
    assert mons == want
    shifts = plan.row_meta.shift.tolist()
    assert shifts == [[2], [1], [0]]
    # closure soundness: every dict monomial divisible by x leads some row
    leads = set(row_lead_cols(plan).tolist())
    assert leads == {0, 1, 2}


def closure_expand_per_member(keys_desc, basis, round_id=1):
    """The divisor search as one pass per basis member in preference order."""
    exps = key_unpack_vec(keys_desc, basis.ring)
    reducer = np.full(len(exps), -1, dtype=np.int64)
    for k in symbolic._reducer_preference(basis).tolist():
        lm = basis.exps[int(basis.offset[k])]
        hit = (reducer < 0) & (exps >= lm[None, :]).all(axis=1)
        reducer[hit] = k
    shifts, ks = [], []
    for j in np.flatnonzero(reducer >= 0)[::-1].tolist():
        k = int(reducer[j])
        lead = tuple(int(x) for x in basis.exps[int(basis.offset[k])])
        m = tuple(int(x) for x in exps[j])
        shifts.append(mon_div(m, lead))
        ks.append(k)
    shifts = np.array(shifts, dtype=np.int64).reshape(len(ks), basis.ring.n_vars)
    return RowMeta.of(RowRole.REDUCER.value, round_id, ks, shifts)


def descending_keys(exps, ring):
    asc, _ = unique_sorted(radix_sort(key_pack_vec(np.asarray(exps, dtype=np.int64), ring))[0])
    return asc[::-1].copy()


def assert_same_rows(got, want):
    assert got.rows.dtype == want.rows.dtype == np.int64
    assert got.rows.shape == want.rows.shape
    assert np.array_equal(got.rows, want.rows)


def assert_same_with_word_exponents(frontier, basis, round_id=1):
    """closure_expand given the frontier's exponent rows, read off word keys,
    gives the rows it gives when it unpacks the packed keys itself."""
    want = closure_expand(frontier, basis, round_id)
    words = symbolic._WordKeys(basis, 8)
    word_keys = key_unpack_vec(frontier, basis.ring) @ words.w + words.c
    exps = words.exponents(word_keys)
    assert_same_rows(closure_expand(word_keys, basis, round_id, None, exps), want)
    assert_same_rows(closure_expand(frontier, basis, round_id, None, exps), want)
    return want


def test_closure_expand_matches_per_member_search_small_cases():
    basis = two_poly_basis()
    empty = np.zeros((0, R2.n_key_words), dtype=np.uint64)
    assert_same_rows(closure_expand(empty, basis), closure_expand_per_member(empty, basis))
    assert len(assert_same_with_word_exponents(empty, basis)) == 0
    # no divisor: y^2, x and 1 are all outside the ideal of {x^2, x*y}
    none = descending_keys([(0, 2), (1, 0), (0, 0)], R2)
    assert_same_rows(closure_expand(none, basis), closure_expand_per_member(none, basis))
    assert len(assert_same_with_word_exponents(none, basis)) == 0
    # equal leads at different indices: the lowest index wins the tie, and
    # x^2*y prefers x*y (smaller lead) over x^2
    tied = soa_pack(
        [poly_parse(t, R2) for t in ("x^2 - y", "x*y - 1", "3*x*y + y", "x*y + x")], R2
    )
    frontier = descending_keys([(3, 1), (2, 1), (1, 1), (2, 0), (0, 3)], R2)
    rows = assert_same_with_word_exponents(frontier, tied, 4)
    assert_same_rows(rows, closure_expand_per_member(frontier, tied, 4))
    assert rows.role.tolist() == [RowRole.REDUCER.value] * 4
    assert np.column_stack([rows.shift, rows.basis_index, rows.provenance]).tolist() == [
        [0, 0, 1, 4], [0, 0, 0, 4], [1, 0, 1, 4], [2, 0, 1, 4]
    ]


def test_closure_expand_matches_per_member_search_across_chunks():
    ring = Ring(["a", "b", "c", "d"], "grevlex", FieldModulus(65537))
    rng = np.random.default_rng(5)
    polys = []
    while len(polys) < 64:
        terms = [
            (tuple(int(x) for x in rng.integers(0, 6, 4)), int(rng.integers(1, 65537)))
            for _ in range(3)
        ]
        f = poly_normalize(terms, ring)
        if not f.is_zero():
            polys.append(f)
    polys += polys[:5]  # repeated leads at higher indices
    basis = soa_pack(polys, ring)
    exps = [e for e in np.ndindex(12, 12, 12, 12) if sum(e) <= 20]
    frontier = descending_keys(exps, ring)
    chunk = monomials._DIVISOR_CELLS // (len(polys) * ring.n_vars)
    assert len(frontier) > 2 * chunk
    rows = assert_same_with_word_exponents(frontier, basis, 2)
    assert len(rows) > chunk
    assert_same_rows(rows, closure_expand_per_member(frontier, basis, 2))


def test_decode_matches_shift_oracle_random():
    rng = np.random.default_rng(42)
    for trial in range(30):
        polys = []
        while len(polys) < 4:
            f = poly_parse_random(rng)
            if not f.is_zero():
                polys.append(f)
        basis = soa_pack(polys, R2)
        rows = []
        for i in range(int(rng.integers(1, 6))):
            k = int(rng.integers(0, 4))
            shift = tuple(int(x) for x in rng.integers(0, 4, 2))
            rows.append((i, shift, k))
        rows.sort(key=lambda r: (r[0], mon_key_pack(r[1], R2), r[2]))
        pid, shifts, ks = zip(*rows)
        rows = rows_of(RowRole.SPOLY_HALF, pid, ks, shifts)
        plan = compile_batch(rows, basis, Closure.SUPPORT_ONLY)
        meta = list(zip(plan.row_meta.shift.tolist(), plan.row_meta.basis_index.tolist()))
        for i, (shift, k) in enumerate(meta):
            want = poly_mul_mon(tuple(shift), soa_polys(basis)[k])
            got = decode_row(plan, i)
            assert got.terms == want.terms
            assert all(type(c) is int and all(type(e) is int for e in m) for m, c in got.terms)
        # dictionary equals the sorted support union (naive set oracle)
        support = set()
        for shift, k in meta:
            for e, _ in poly_mul_mon(tuple(shift), soa_polys(basis)[k]).terms:
                support.add(e)
        got = {tuple(k) for k in plan.dict_keys.tolist()}
        assert got == {mon_key_pack(m, R2) for m in support}


def poly_parse_random(rng):
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        e = tuple(int(x) for x in rng.integers(0, 4, 2))
        c = int(rng.integers(0, 7))
        terms.append((e, c))
    return poly_normalize(terms, R2)


def test_compile_deterministic_across_policies():
    f = poly_parse("x^2 - y", R2)
    g = poly_parse("x*y - 1", R2)
    h = poly_parse("y^2 - 1", R2)
    basis = soa_pack([f, g, h], R2)
    rows = spoly_pair_rows(basis)
    base = None
    for policy in POLICIES:
        plan = compile_batch(rows, basis, Closure.ONE_STEP_REDUCTION, policy)
        text = plan_to_text(plan)
        if base is None:
            base = text
        else:
            assert text == base


def test_one_lane_compile_runs_no_lane_split_code(monkeypatch):
    """ExecPolicy(1) compiles without the lane-split route, to the same bytes.

    The largest katsura-6 batch spans several merge grains, so ExecPolicy(4)
    splits its merge path; the one-lane compile must not touch either helper.
    """
    from fpgb import bulk

    ring, polys = gen_katsura(6, 65537)
    batches = []
    f4_groebner(polys, ring, PipelineConfig(), lambda b, plan, e, s: batches.append((b, plan)))
    basis, driver_plan = max(batches, key=lambda bp: bp[1].counters.M)
    assert driver_plan.counters.M > bulk.MERGE_GRAIN
    meta = driver_plan.row_meta
    rows = RowMeta(meta.rows[meta.role == RowRole.SPOLY_HALF.value])
    lane_split = plan_to_text(compile_batch(rows, basis, Closure.ONE_STEP_REDUCTION, ExecPolicy(4)))

    def forbidden(*args, **kwargs):
        raise AssertionError("lane-split helper reached at one lane")

    monkeypatch.setattr(bulk, "_lane_bounds", forbidden)
    monkeypatch.setattr(bulk, "_merge_path_splits", forbidden)
    one_lane = plan_to_text(compile_batch(rows, basis, Closure.ONE_STEP_REDUCTION, ExecPolicy(1)))
    assert one_lane == lane_split == plan_to_text(driver_plan)


def test_plan_race_freedom_partition():
    basis = two_poly_basis()
    rows = spoly_pair_rows(basis)
    plan = compile_batch(rows, basis)
    seen = np.zeros(plan.counters.M, dtype=int)
    for i in range(plan.n_rows):
        seen[plan.row_ptr[i] : plan.row_ptr[i + 1]] += 1
    assert (seen == 1).all()


def test_dict_cap_guard(monkeypatch):
    rx = Ring(["x"], "grevlex", M7)
    gb = soa_pack([poly_parse("x - 1", rx)], rx)
    # x^50 (x - 1) has the keys x^51 and x^50; the closure then walks down one
    # monomial per round, to 52 after 50 rounds
    seed_rows = rows_of(RowRole.SPOLY_HALF, 0, [0], [[50]])
    plan = compile_batch(seed_rows, gb, Closure.ONE_STEP_REDUCTION)
    assert (plan.counters.N, plan.counters.closure_rounds) == (52, 50)
    monkeypatch.setattr(symbolic, "DICT_CAP", 52)
    assert compile_batch(seed_rows, gb, Closure.ONE_STEP_REDUCTION).counters.N == 52
    for cap, rounds in ((51, 50), (10, 9), (1, 1)):
        monkeypatch.setattr(symbolic, "DICT_CAP", cap)
        with pytest.raises(SizeCapError, match=f"exceeded {cap} entries after {rounds} closure rounds"):
            compile_batch(seed_rows, gb, Closure.ONE_STEP_REDUCTION)
        # the cap bounds what closure rounds add: round 0 alone compiles
        assert compile_batch(seed_rows, gb, Closure.SUPPORT_ONLY).counters.N == 2


# sha256 of plan_to_text for every batch, then of the final interreduction's
# plan (a round 0 of REDUCER rows, which never reaches on_batch), then of the
# reduced basis text: pins the compiler's output bytes across code versions,
# not only across worker counts within one version
GOLDEN_PLANS = {
    ("cyclic", 5, 65537): (
        [
            "cfb075cf537c18bb7cf887c7b030c9e7b36a857f8f5102eeadac51695da18c5f",
            "035f3a4dfd9c71c509a9612e0cb24ad018903c1db1c6dbec55571b1809af0fe9",
            "a80695c4afbfaa05f4687d116cb92bb3129ef127057553fbebd62e9220c7780b",
            "3d3399d0c3000fb82a44e664a6b04a7463da7731d4866db8fc1007b8aed2f11f",
            "7ab30c7ad3e288d1a1bad9527d6fc90154617dd171244cddd6f5e682be5251c3",
            "00ccbce80d8a9a800af76f96f46af7afb2b2216800ca5143448db21ef9ddf2de",
            "e6030ffca47dfb3e19ba3f1b6755cbda0fe41f96b87b1bf1e6cb6af694b26062",
            "14cc3fc35d47e3f4193e88ea8a9eab3d65c201d71bf5a5e4e5297b55112f4550",
            "5b38f08abf14f56567acfec4e5c178a18ec7b2f272ea6eea7bfa96b739118684",
            "23aaf5f842791e48d9e08bfb74c007678c4b3511fb2f9646ab3bc73d7c25415f",
            "7b71a0d3c1fdfce013c155293ab62f34c00e3c2dd517f682219242fb79c4f6ac",
            "6865005e65e4d72c1e35e11137a32819b0aeb2f6b7ca355adaeedc48dba15b94",
            "b4dc6597d3cee6d9ecf42e612534a3575851041d4adc3b20087e1c0c72cdfe0a",
            "432b405065d44aa1dd7f37e2dbd0776e62d305221c6fdc8d311a8f7b9e3c35ed",
        ],
        "846266a78c60d00fe7365415453476d4182e87aaeed482cbb7b22887399dbe8c",
        "52d0ca1f26d2c4a993d9757686f11143b3aa5fdb7657d04986604b86f278f2f6",
    ),
    ("katsura", 4, 2147483629): (
        [
            "62eedf7c79c221d519024df4f520ed7ace7bd472c7e1ce8acec37514186deaed",
            "545571cb50586c5e358ceeaee7d11b2ea30816b4a0e700dd488c642677b0cf2b",
            "36a06158c61358da6dfedce140bd333cc63dc77bb1d1d6e89abdaeb92f344cbc",
            "de732c8bced8efeb5089df727d1c2eb2a3f1eb24343afd090d1222c312dd6052",
            "1b503e6a87e272f926f555990c32466162f5ac2b7afd6af0562b9c68f321a255",
        ],
        "e2dc7de004412df85c7437477b02739538a8c9264720fae7a6da5c94d7f000d7",
        "ecc270704456c7842bea938f4e93f40485bdc83c6956a38c1942f888d8f46862",
    ),
    # many-small's systems: (order, seed, p); the pair queue's order depends
    # on the term order, so lex and deglex are pinned as well
    ("random-deglex", 1, 2147483629): (
        [
            "5c31bde58446521b0897d8c3814e7b58280103f7a2e41c370c47a408dc0fa2ad",
            "b06881f503ccbe549f21bf0592db22382c2e52534f2b84fcc239f691622d76be",
            "90219c5a61689077e41f400436baa6285b2071cf64b50488c6068d84feeb6942",
            "98cc76f4cf81927cca31ad1ceee21a960b9848ee0814eb5c00d92edb303c2af1",
        ],
        "88f89b16dadfa74c1208c41aaf78f8badc38baa19aff865e9451cc6b7a2c9cc2",
        "7edc8dff2bcbece9d5dbb5bec97ba3d6c33720ba6f9f7f21a0383f62a19ba767",
    ),
    ("random-lex", 2, 2147483629): (
        [
            "66c1ca8a8dc31f1763ed319c8947549ba99794b50b37a8721a68bdbab8efb914",
            "54fb64731ea4063fefb27174e16d24f11ad5a300494f2d5fc81262bbf50989db",
            "4887ae7f12bd14b1a5422bcbd02f604508a58000e84488cf7c603dc41c303258",
            "056211260f030f5bb78f6acad8b2051954a7e49cf4445887b8ac01bccd66ff92",
            "b43d46d7f85e8d48ce46a8cc96119e6a8036513ec38ddf0de5704029792ab919",
            "1910a4bbd868ef9764f8fe85101cda801df06c343d11fdf060d8396a0b5f75c4",
            "9a3349c78d955af383db0eb8d8f8875c09487f12c13f9b66cfb326202b9308e0",
            "9642bb55142f954862e1a6043b2a728f133d72d3bcb926b5b2cd83db9344c0ea",
            "0e465b0384fc8a96d283ee8df71df42e83fa875ef71e08304ce17c547b3f120f",
            "58fb68828a684a3001594b7c2ad98452a45d386f347db74572f80512ca35e7dc",
            "0fcfcc133fa0f94b8bb2d1ef5b9b4f6da4759088ee9130d05210871fa9f2942c",
            "0f6902332396f83d36dea1bd3f8687c4eb2db46907f8b258d5ff8376cf568eb2",
        ],
        "1caf9d9cefd410fb606a09e4cb5374c2e1ca87db44f230d138cf7d547164559f",
        "3f14059ac6206f18e3e6053adfc4606061c8eeabb1bc2836864bb12e19899bb6",
    ),
}


def golden_system(family, n, p):
    """cyclic-n and katsura-n, or many-small's random system of seed n."""
    if family in ("cyclic", "katsura"):
        return {"cyclic": gen_cyclic, "katsura": gen_katsura}[family](n, p)
    order = family.removeprefix("random-")
    ring, polys = gen_random_quadratic(3, 3, 0.5, n, p)
    text = format_system(ring, polys).replace(f"order {ring.order}\n", f"order {order}\n", 1)
    return parse_system(text)


@pytest.mark.parametrize("instance", sorted(GOLDEN_PLANS))
def test_golden_plan_and_basis_digests(instance, monkeypatch):
    ring, polys = golden_system(*instance)
    digests, rounds = [], []

    def compile_and_record(*args, **kwargs):
        plan = compile_batch(*args, **kwargs)
        digests.append(hashlib.sha256(plan_to_text(plan).encode()).hexdigest())
        rounds.append(plan.counters.closure_rounds)
        return plan

    monkeypatch.setattr(groebner, "compile_batch", compile_and_record)
    basis = f4_groebner(polys, ring, PipelineConfig())
    want_plans, want_interreduction, want_basis = GOLDEN_PLANS[instance]
    assert digests == want_plans + [want_interreduction]
    assert basis_digest(format_system(ring, basis)) == want_basis
    assert max(rounds) >= 2  # the closure runs past its first round


# sha256 of katsura-6/F65537's reduced basis text as sympy computes it, the
# same value perfbench/expected.json gates the big-batch workload with
KATSURA6_F65537_BASIS = "4c73e737d3e14e6fa2e6b584a1f52831618cb3c0194e4d3821492f4091316188"


def test_katsura6_basis_digest_matches_independent_route():
    ring, polys = gen_katsura(6, 65537)
    basis = f4_groebner(polys, ring)
    assert len(basis) == 41
    assert basis_digest(format_system(ring, basis)) == KATSURA6_F65537_BASIS


def hand_plan(row_cols, n_dict=4):
    """A plan over R2's dictionary {x^2*y > y^2 > x > 1} with the given rows.

    Values are all 1 and the counters agree with the arrays, so the only
    defects are the ones the row columns carry.
    """
    lens = [len(c) for c in row_cols]
    row_ptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    col_ind = np.array([c for cols in row_cols for c in cols], dtype=np.int64)
    dict_keys = np.array(
        [mon_key_pack(m, R2) for m in [(2, 1), (0, 2), (1, 0), (0, 0)][:n_dict]],
        dtype=np.uint64,
    )
    M = int(row_ptr[-1])
    rows = rows_of(RowRole.REDUCER, 1, [0] * len(row_cols), [(0, 0)] * len(row_cols))
    counters = PlanCounters(len(row_cols), n_dict, M, M, 0, M, M)
    return LayoutPlan(R2, row_ptr, col_ind, np.ones(M, dtype=np.uint64), dict_keys, rows, counters)


def test_layout_plan_validate_accepts_hand_plan():
    hand_plan([[0, 2], [1, 3], [3]]).validate()


def _zero_value(plan):
    plan.val[1] = 0


def _swap_dict(plan):
    plan.dict_keys[[1, 2]] = plan.dict_keys[[2, 1]]


def _repeat_dict(plan):
    plan.dict_keys[2] = plan.dict_keys[1]


def _wrong_n(plan):
    plan.counters.N += 1


def _wrong_keys_emitted(plan):
    plan.counters.keys_emitted -= 1


def _short_tiling(plan):
    plan.row_ptr[-1] -= 1


@pytest.mark.parametrize(
    "row_cols, breaker, message",
    [
        ([[0, 2], [], [1, 3]], None, "empty row 1 "),
        ([[], [0]], None, "empty row 0 "),
        ([[0, 2], [3, 1]], None, "row 1 columns not strictly ascending"),
        ([[0], [1, 1], [2]], None, "row 1 columns not strictly ascending"),
        ([[0, 2], [1, 4]], None, "row 1 column out of range"),
        ([[0], [2], [-1, 3]], None, "row 2 column out of range"),
        # several bad rows: the first one is named, by its own defect
        ([[0], [1, 5], [2, 0], []], None, "row 1 column out of range"),
        ([[0], [], [2, 0], [1, 5]], None, "empty row 1 "),
        ([[0, 2], [1, 3]], _zero_value, "zero value stored in plan"),
        ([[0, 2], [1, 3]], _swap_dict, "dictionary keys not strictly descending"),
        ([[0, 2], [1, 3]], _repeat_dict, "dictionary keys not strictly descending"),
        ([[0, 2], [1, 3]], _wrong_n, "counters inconsistent"),
        ([[0, 2], [1, 3]], _wrong_keys_emitted, "counters inconsistent"),
        ([[0, 2], [1, 3]], _short_tiling, "row_ptr does not tile"),
    ],
)
def test_layout_plan_validate_rejects_one_broken_invariant(row_cols, breaker, message):
    plan = hand_plan(row_cols)
    if breaker is not None:
        breaker(plan)
    with pytest.raises(PropertyViolationError, match=message):
        plan.validate()


@pytest.mark.parametrize("value", [7, 8, 2**64 - 1])
def test_layout_plan_validate_rejects_value_not_below_p(value):
    # the plan check is the batch matrix's only one, so it bounds values by p
    plan = hand_plan([[0, 2], [1, 3]])
    plan.val[1] = 6
    plan.validate()
    plan.val[1] = value
    with pytest.raises(PropertyViolationError, match="value not below p stored in plan"):
        plan.validate()
