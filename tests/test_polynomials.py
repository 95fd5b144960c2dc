"""Polynomial canonical form, parser, shift/combine oracle ops, SOA storage."""

import numpy as np
import pytest

from fpgb.errors import ArityMismatchError, LaneOverflowError, PolyParseError, PropertyViolationError
from fpgb.fp import FieldModulus
from fpgb.monomials import Ring, mon_mul
from fpgb.polynomials import (
    Poly,
    SoaPolySet,
    poly_add_scaled,
    poly_format,
    poly_mul_mon,
    poly_normalize,
    poly_parse,
    soa_pack,
    soa_polys,
)

M7 = FieldModulus(7)
R2 = Ring(["x", "y"], "grevlex", M7)


def rand_poly(rng, ring, max_deg=4, max_terms=6):
    terms = []
    for _ in range(int(rng.integers(0, max_terms + 1))):
        e = tuple(int(x) for x in rng.integers(0, max_deg + 1, ring.n_vars))
        c = int(rng.integers(0, ring.modulus.p))
        terms.append((e, c))
    return poly_normalize(terms, ring)


def test_normalize_cancellation():
    f = poly_normalize([((1, 0), 3), ((1, 0), 4)], R2)
    assert f.is_zero()


def test_normalize_orders_terms():
    f = poly_normalize([((0, 1), 1), ((2, 0), 2)], R2)
    assert f.terms == (((2, 0), 2), ((0, 1), 1))


def test_normalize_empty():
    assert poly_normalize([], R2).is_zero()


def test_parse_example():
    f = poly_parse("x^2*y + 3*x - 1", R2)
    assert f.terms == (((2, 1), 1), ((1, 0), 3), ((0, 0), 6))


def test_parse_zero_and_constants():
    assert poly_parse("0", R2).is_zero()
    assert poly_parse("7", R2).is_zero()
    assert poly_parse("-3", R2).terms == (((0, 0), 4),)
    assert poly_parse("2*3", R2).terms == (((0, 0), 6),)


def test_parse_unknown_variable_position():
    with pytest.raises(PolyParseError) as exc:
        poly_parse("x + w", R2)
    assert exc.value.position == 4


def test_parse_malformed():
    for bad in ("x +", "* x", "x ^ y", "x^", "x @ y", ""):
        with pytest.raises(PolyParseError):
            poly_parse(bad, R2)


def test_parse_exponent_overflow():
    with pytest.raises(PolyParseError):
        poly_parse("x^65536", R2)


def test_format_parse_round_trip():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        f = rand_poly(rng, R2)
        assert poly_parse(poly_format(f), R2).terms == f.terms


def test_mul_mon_examples():
    f = poly_parse("x^2 - y", R2)
    assert poly_mul_mon((0, 0), f).terms == f.terms
    g = poly_mul_mon((0, 1), f)
    assert g.terms == (((2, 1), 1), ((0, 2), 6))


def test_mul_mon_preserves_length():
    rng = np.random.default_rng(5)
    for _ in range(300):
        f = rand_poly(rng, R2)
        t = tuple(int(x) for x in rng.integers(0, 4, 2))
        assert len(poly_mul_mon(t, f)) == len(f)


def test_mul_mon_matches_per_term_shift():
    rng = np.random.default_rng(6)
    for _ in range(300):
        f = rand_poly(rng, R2)
        t = tuple(int(x) for x in rng.integers(0, 4, 2))
        assert poly_mul_mon(t, f).terms == tuple((mon_mul(t, e), c) for e, c in f.terms)


def test_mul_mon_lane_boundary():
    f = poly_parse("x^65000 + y", R2)
    assert poly_mul_mon((535, 0), f).terms == (((65535, 0), 1), ((535, 1), 1))
    with pytest.raises(LaneOverflowError):
        poly_mul_mon((536, 0), f)
    # the shift's largest exponent plus f's reaches 2^16, but no product
    # does: every term goes through mon_mul, which succeeds
    assert poly_mul_mon((0, 600), f).terms == (((65000, 600), 1), ((0, 601), 1))
    with pytest.raises(ArityMismatchError):
        poly_mul_mon((1,), f)
    with pytest.raises(ArityMismatchError):
        poly_mul_mon((0, 0, 1), f)


def test_add_scaled_examples():
    f = poly_parse("x^2 - y", R2)
    g = poly_parse("y - 3", R2)
    assert poly_add_scaled(f, 0, g).terms == f.terms
    assert poly_add_scaled(f, 6, f).is_zero()
    h = poly_add_scaled(f, 1, g)
    assert h.terms == (((2, 0), 1), ((0, 0), 4))


def test_add_scaled_bilinear_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        f, g = rand_poly(rng, R2), rand_poly(rng, R2)
        c = int(rng.integers(0, 7))
        back = poly_add_scaled(poly_add_scaled(f, c, g), (7 - c) % 7, g)
        assert back.terms == f.terms


def test_soa_round_trip():
    rng = np.random.default_rng(8)
    polys = [rand_poly(rng, R2) for _ in range(100)]
    s = soa_pack(polys, R2)
    s.validate()
    for i, f in enumerate(polys):
        assert soa_polys(s)[i].terms == f.terms
    assert np.array_equal(s.offset, np.concatenate([[0], np.cumsum(s.length)]))


def test_soa_single_and_empty():
    f = poly_parse("x + 1", R2)
    s = soa_pack([f], R2)
    assert soa_polys(s)[0].terms == f.terms
    empty = soa_pack([], R2)
    assert len(empty.coeff) == 0
    assert list(empty.offset) == [0]
    empty.validate()
    with pytest.raises(IndexError):
        soa_polys(empty)[0]


def test_soa_validate_raises_property_violation():
    s = soa_pack([poly_parse("x^2 + 3*y + 1", R2), poly_parse("x + 1", R2)], R2)

    def broken(**fields):
        return SoaPolySet(**{**vars(s), **fields})

    bad = [
        broken(length=s.length + 1),
        broken(coeff=np.where(s.coeff == 3, 0, s.coeff).astype(np.uint64)),
        broken(mon_key=s.mon_key[[1, 0, 2, 3, 4]]),
    ]
    for t, match in zip(bad, ("segment table", "coefficient", "descending")):
        with pytest.raises(PropertyViolationError, match=match):
            t.validate()
