"""Term orders and the packed key encoding (order refinement, round trips)."""

from unittest import mock

import numpy as np
import pytest

from fpgb.errors import ArityMismatchError, CorruptKeyError, DivisionError, LaneOverflowError
from fpgb import monomials
from fpgb.fp import FieldModulus
from fpgb.monomials import (
    ORDERS,
    Ring,
    count_monomials,
    first_divisor,
    minimal_rows,
    key_cmp_rows,
    key_pack_vec,
    key_unpack_vec,
    mon_compare_vec,
    mon_div,
    mon_divides,
    mon_key_pack,
    mon_lcm,
    mon_mul,
)

M7 = FieldModulus(7)


def ring(n, order="grevlex"):
    return Ring([f"x{i}" for i in range(n)], order, M7)


def enumerate_monomials(n, d):
    """All exponent tuples with total degree <= d."""
    if n == 1:
        return [(e,) for e in range(d + 1)]
    out = []
    for e in range(d + 1):
        for rest in enumerate_monomials(n - 1, d - e):
            out.append((e,) + rest)
    return out


def cmp_keys(a, b) -> int:
    return (a > b) - (a < b)


def test_grevlex_examples():
    r = ring(3)  # vars x0 > x1 > x2
    y2 = (0, 2, 0)
    xz = (1, 0, 1)
    xy2 = (1, 2, 0)
    x2 = (2, 0, 0)
    # y^2 beats x*z at equal degree; degree dominates
    u = [y2, xz, y2, xy2]
    v = [xz, y2, y2, x2]
    assert mon_compare_vec(u, v, r).tolist() == [1, -1, 0, 1]
    assert [cmp_keys(r.sort_key(a), r.sort_key(b)) for a, b in zip(u, v)] == [1, -1, 0, 1]


def test_compare_is_total_order():
    rng = np.random.default_rng(10)
    for order in ORDERS:
        r = ring(4, order)
        u, v, w = rng.integers(0, 6, (3, 20, 4))
        uv, vu, vw, uw = (mon_compare_vec(a, b, r) for a, b in ((u, v), (v, u), (v, w), (u, w)))
        assert np.array_equal(uv, -vu)
        assert (uw[(uv <= 0) & (vw <= 0)] <= 0).all()
        keys = [[r.sort_key(tuple(m)) for m in x.tolist()] for x in (u, v)]
        assert [cmp_keys(a, b) for a, b in zip(*keys)] == uv.tolist()


def test_unit_monomial_has_smallest_key():
    for order in ORDERS:
        r = ring(2, order)
        unit_key = np.asarray([mon_key_pack((0, 0), r)], dtype=np.uint64)
        for u in enumerate_monomials(2, 4):
            if u == (0, 0):
                continue
            k = np.asarray([mon_key_pack(u, r)], dtype=np.uint64)
            assert key_cmp_rows(unit_key, k)[0] == -1


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_key_order_refines_term_order(order, n):
    rng = np.random.default_rng(n * 1000 + len(order))
    r = ring(n, order)
    u = rng.integers(0, 31, (5000, n))
    v = rng.integers(0, 31, (5000, n))
    ku = key_pack_vec(u, r)
    kv = key_pack_vec(v, r)
    key_cmp = key_cmp_rows(ku, kv)
    direct = mon_compare_vec(u, v, r)
    assert np.array_equal(key_cmp, direct)
    # the scalar keys of the poly layer agree with the vector path
    for i in range(0, 200):
        assert cmp_keys(r.sort_key(tuple(u[i].tolist())), r.sort_key(tuple(v[i].tolist()))) == direct[i]


def test_pack_unpack_round_trip_exhaustive_n2():
    for order in ORDERS:
        r = ring(2, order)
        mons = enumerate_monomials(2, 6)
        arr = np.array(mons, dtype=np.int64)
        keys = key_pack_vec(arr, r)
        back = key_unpack_vec(keys, r)
        assert np.array_equal(back, arr)
        for u in mons[:20]:
            key = np.array([mon_key_pack(u, r)], dtype=np.uint64)
            assert tuple(key_unpack_vec(key, r)[0].tolist()) == u


def test_pack_unpack_round_trip_random():
    rng = np.random.default_rng(77)
    for n in range(1, 9):
        for order in ORDERS:
            r = ring(n, order)
            arr = rng.integers(0, 1000, (1000, n))
            assert np.array_equal(key_unpack_vec(key_pack_vec(arr, r), r), arr)


def test_corrupt_key_rejected():
    r = ring(2, "grevlex")
    k = np.asarray([mon_key_pack((1, 2), r)], dtype=np.uint64)
    bad = k.copy()
    bad[0, 0] ^= np.uint64(1) << np.uint64(40)  # damage the degree lane
    with pytest.raises(CorruptKeyError):
        key_unpack_vec(bad, r)


def repack_accepts(words, r):
    """The former key check, on plain ints: unpack the lanes, pack again, compare.

    Returns the exponents when the key packs back to itself, else None.
    """
    w = len(words)
    acc = sum(int(x) << (64 * (w - 1 - i)) for i, x in enumerate(words))
    head = 32 if r.graded else 0
    lanes = [(acc >> (64 * w - head - 16 * (i + 1))) & 0xFFFF for i in range(r.n_vars)]
    exps = tuple(0xFFFF - x for x in reversed(lanes)) if r.order == "grevlex" else tuple(lanes)
    return exps if mon_key_pack(exps, r) == tuple(int(x) for x in words) else None


def test_key_check_rejects_exactly_what_repacking_rejects():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 32),
        order=st.sampled_from(ORDERS),
        data=st.data(),
    )
    def check(n, order, data):
        r = ring(n, order)
        exps = data.draw(st.lists(st.integers(0, 0xFFFF), min_size=n, max_size=n))
        key = list(mon_key_pack(tuple(exps), r))
        mode = data.draw(st.sampled_from(["valid", "flip", "random"]))
        if mode == "flip":
            bit = data.draw(st.integers(0, 64 * r.n_key_words - 1))
            key[bit // 64] ^= 1 << (bit % 64)
        elif mode == "random":
            key = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(key), max_size=len(key)))
        want = repack_accepts(key, r)
        arr = np.array([key], dtype=np.uint64)
        if want is None:
            with pytest.raises(CorruptKeyError):
                key_unpack_vec(arr, r)
        else:
            assert key_unpack_vec(arr, r).tolist() == [list(want)]

    check()


def test_lane_overflow_errors():
    r = ring(2)
    with pytest.raises(LaneOverflowError):
        key_pack_vec(np.array([[1 << 16, 0]]), r)
    with pytest.raises(LaneOverflowError):
        mon_mul((1 << 15,), (1 << 15,))


def test_mul_lcm_div_examples():
    x, y = (1, 0), (0, 1)
    assert mon_mul(x, y) == (1, 1)
    assert mon_mul((2, 1), (0, 0)) == (2, 1)
    # (x^2 y) * (x z): three variables
    assert mon_mul((2, 1, 0), (1, 0, 1)) == (3, 1, 1)
    assert sum(mon_mul((2, 1, 0), (1, 0, 1))) == 5
    assert mon_lcm((2, 0), (1, 1)) == (2, 1)
    assert mon_divides((0, 0), (5, 7))
    assert mon_div((2, 1), (1, 1)) == (1, 0)
    with pytest.raises(DivisionError):
        mon_div((1, 0), (0, 1))
    with pytest.raises(ArityMismatchError):
        mon_mul((1,), (1, 2))


def test_lcm_div_properties():
    rng = np.random.default_rng(123)
    for _ in range(300):
        u = tuple(int(x) for x in rng.integers(0, 8, 3))
        v = tuple(int(x) for x in rng.integers(0, 8, 3))
        l = mon_lcm(u, v)
        assert mon_divides(u, l) and mon_divides(v, l)
        assert mon_mul(mon_div(l, u), u) == l


def first_divisor_scalar(divisors, targets):
    """The first dividing row per target, by a mon_divides loop."""
    out = []
    for t in targets.tolist():
        hits = [k for k, d in enumerate(divisors.tolist()) if mon_divides(tuple(d), tuple(t))]
        out.append(hits[0] if hits else -1)
    return out


def test_first_divisor_matches_scalar_loop(monkeypatch):
    rng = np.random.default_rng(17)
    seen = set()
    for n in range(1, 9):
        # small exponents make divisibility, repeated rows and misses common
        divisors = rng.integers(0, 3, (int(rng.integers(1, 12)), n))
        divisors = np.concatenate([divisors, divisors[:3]])  # repeated rows
        targets = rng.integers(0, 4, (int(rng.integers(1, 60)), n))
        targets = np.concatenate([targets, targets[:5], divisors])
        want = first_divisor_scalar(divisors, targets)
        seen.update(want)
        assert first_divisor(divisors, targets).tolist() == want
        # a few targets per chunk: many chunk boundaries are crossed
        monkeypatch.setattr(monomials, "_DIVISOR_CELLS", 2 * divisors.size)
        assert first_divisor(divisors, targets).tolist() == want
        monkeypatch.setattr(monomials, "_DIVISOR_CELLS", 1)
        assert first_divisor(divisors, targets).tolist() == want
        # minimal: no earlier row divides it (a repeated row never is)
        rows = targets.tolist()
        minimal = [
            not any(mon_divides(tuple(d), tuple(t)) for d in rows[:k]) for k, t in enumerate(rows)
        ]
        assert minimal_rows(targets).tolist() == minimal
        monkeypatch.undo()
    # misses, and hits past the first divisor, both occur
    assert -1 in seen and max(seen) > 0


def laid_out(x, layout):
    """``x`` as a C-ordered, an F-ordered, or a strided view of a larger array."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "sliced":
        wide = np.zeros((2 * x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
        wide[::2, 1::2] = x
        return wide[::2, 1::2]
    return np.ascontiguousarray(x)


def test_first_divisor_matches_scalar_loop_in_any_layout():
    """The mask's layout never changes the answer, empty divisor sets included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    layouts = st.sampled_from(["C", "F", "sliced"])

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(n=st.integers(1, 11), data=st.data())
    def check(n, data):
        mons = st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), max_size=12)
        divisors = np.array(data.draw(mons), dtype=np.int64).reshape(-1, n)
        targets = np.array(data.draw(mons), dtype=np.int64).reshape(-1, n)
        want = first_divisor_scalar(divisors, targets)
        divisors = laid_out(divisors, data.draw(layouts))
        targets = laid_out(targets, data.draw(layouts))
        # one target a chunk crosses every chunk boundary
        cells = data.draw(st.sampled_from([1, monomials._DIVISOR_CELLS]))
        with mock.patch.object(monomials, "_DIVISOR_CELLS", cells):
            assert first_divisor(divisors, targets).tolist() == want
        rows = targets.tolist()
        minimal = [not any(mon_divides(tuple(d), tuple(t)) for d in rows[:k]) for k, t in enumerate(rows)]
        assert minimal_rows(targets).tolist() == minimal

    check()


def test_first_divisor_empty_sets():
    none = np.zeros((0, 3), dtype=np.int64)
    some = np.array([[1, 0, 2], [0, 0, 0]], dtype=np.int64)
    assert first_divisor(none, some).tolist() == [-1, -1]
    got = first_divisor(some, none)
    assert got.dtype == np.int64 and got.shape == (0,)
    assert first_divisor(none, none).shape == (0,)
    assert minimal_rows(none).shape == (0,)
    # the unit divides everything; a repeated row is never the first divisor
    assert first_divisor(some[::-1], some).tolist() == [0, 0]
    assert first_divisor(np.repeat(some, 2, axis=0), some).tolist() == [0, 2]


def test_count_monomials_examples():
    assert count_monomials(3, 2) == 10
    for n in range(1, 6):
        assert count_monomials(n, 0) == 1
    assert count_monomials(5, 10) == 3003


def test_count_matches_enumeration():
    for n in range(1, 5):
        for d in range(0, 7):
            assert len(enumerate_monomials(n, d)) == count_monomials(n, d)


def test_variable_count_cap():
    r32 = ring(32)
    assert r32.n_key_words == 9  # (32 + 16*32) bits packed into <= 9 words
    u = tuple(range(32))
    key = np.array([mon_key_pack(u, r32)], dtype=np.uint64)
    assert tuple(key_unpack_vec(key, r32)[0].tolist()) == u
    with pytest.raises(ValueError):
        Ring([f"x{i}" for i in range(33)], "grevlex", M7)
    with pytest.raises(ValueError):
        Ring(["x", "x"], "grevlex", M7)


def test_scalar_pack_equals_vector_pack():
    rng = np.random.default_rng(3141)
    for order in ORDERS:
        for n in (1, 3, 8, 32):
            r = ring(n, order)
            arr = rng.integers(0, 1 << 16, (200, n))
            vec = key_pack_vec(arr, r)
            for i in range(200):
                scalar = mon_key_pack(tuple(int(x) for x in arr[i]), r)
                assert scalar == tuple(int(w) for w in vec[i])
