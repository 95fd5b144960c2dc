"""Polynomial canonical form, parser, shift/combine oracle ops, SOA storage."""

import re

import numpy as np
import pytest

from fpgb.errors import ArityMismatchError, LaneOverflowError, PolyParseError, PropertyViolationError
from fpgb.fp import FieldModulus
from fpgb.monomials import _EXP_LIMIT, Ring, mon_mul
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


def test_parse_end_of_input_errors_point_at_the_end():
    # an error at the end of the text is at len(text), trailing spaces included
    cases = [
        ("x + y^", "expected integer exponent after '^'"),
        ("3*x + 2*y^ ", "expected integer exponent after '^'"),
        ("x + y-", "dangling sign at end of input"),
        ("3*x + 2*y* ", "dangling '*' at end of input"),
    ]
    for text, message in cases:
        with pytest.raises(PolyParseError, match=re.escape(message)) as exc:
            poly_parse(text, R2)
        assert exc.value.position == len(text)


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
    assert np.array_equal(np.diff(s.offset), [len(f) for f in polys])


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
        broken(offset=np.array([0, 6, 5])),
        broken(coeff=np.where(s.coeff == 3, 0, s.coeff).astype(np.uint64)),
        broken(exps=s.exps[[1, 0, 2, 3, 4]]),
    ]
    for t, match in zip(bad, ("segment table", "coefficient", "descending")):
        with pytest.raises(PropertyViolationError, match=match):
            t.validate()


_ORACLE_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^]))")


def oracle_parse(text, ring):
    """Reference parser for ``poly_parse``: one regex match per token into
    (kind, value, position) tuples, then a walk over the tuples."""
    tokens = []
    pos = 0
    while pos < len(text):
        mt = _ORACLE_TOKEN_RE.match(text, pos)
        if mt is None or mt.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {text[bad]!r}", position=bad)
        if mt.group(1) is not None:
            tokens.append(("int", int(mt.group(1)), mt.start(1)))
        elif mt.group(2) is not None:
            tokens.append(("name", mt.group(2), mt.start(2)))
        else:
            tokens.append(("op", mt.group(3), mt.start(3)))
        pos = mt.end()
    if not tokens:
        raise PolyParseError("empty polynomial", position=0)

    var_index = {name: i for i, name in enumerate(ring.var_names)}
    terms = []
    i = 0
    n = len(tokens)

    def expect_factor(i, exps, coeff):
        kind, val, at = tokens[i]
        if kind == "int":
            return i + 1, exps, coeff * val
        if kind == "name":
            if val not in var_index:
                raise PolyParseError(f"unknown variable {val!r}", position=at)
            e = 1
            i += 1
            if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
                i += 1
                if i >= n or tokens[i][0] != "int":
                    where = tokens[i][2] if i < n else len(text)
                    raise PolyParseError("expected integer exponent after '^'", position=where)
                e = tokens[i][1]
                if e >= _EXP_LIMIT:
                    raise PolyParseError(f"exponent {e} overflows 16-bit lane", position=tokens[i][2])
                i += 1
            exps = list(exps)
            exps[var_index[val]] += e
            if exps[var_index[val]] >= _EXP_LIMIT:
                raise PolyParseError("accumulated exponent overflows 16-bit lane", position=at)
            return i, tuple(exps), coeff
        raise PolyParseError(f"expected a factor, found {val!r}", position=at)

    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise PolyParseError("dangling sign at end of input", position=len(text))
        exps = (0,) * ring.n_vars
        coeff = 1
        i, exps, coeff = expect_factor(i, exps, coeff)
        while i < n and tokens[i][0] == "op" and tokens[i][1] == "*":
            i += 1
            if i >= n:
                raise PolyParseError("dangling '*' at end of input", position=len(text))
            i, exps, coeff = expect_factor(i, exps, coeff)
        terms.append((exps, sign * coeff))
        if i < n and not (tokens[i][0] == "op" and tokens[i][1] in "+-"):
            raise PolyParseError(f"expected '+' or '-', found {tokens[i][1]!r}", position=tokens[i][2])
    return poly_normalize(terms, ring)


def parse_outcome(parse, text, ring):
    """A parse's result, or its error as (message, position)."""
    try:
        return parse(text, ring)
    except PolyParseError as exc:
        return str(exc), exc.position


# The grammar's alphabet for R2: digits and integers (one past the 16-bit
# lane, and a non-ASCII decimal digit), the ring's names, an unknown name
# and a name with digits, the operators, spaces, and stray characters.
_PARSE_PIECES = (
    [str(d) for d in range(10)]
    + ["007", "65535", "65536", "\u0663"]
    + ["x", "y", "w", "x1", "_"]
    + ["+", "-", "*", "^"]
    + [" ", "  ", "\t"]
    + ["@", ".", "(", "\u00b2"]
)


def test_parse_matches_oracle_on_grammar_alphabet_strings():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # signed terms among the pieces, so that strings often parse a long way
    # before they fail, or parse whole; an empty factor or exponent leaves
    # a '*' or '^' dangling, often at the end of the text
    power = st.tuples(st.sampled_from(["x", "y"]), st.sampled_from(["0", "2", "65535", "65536", "", " "]))
    factor = st.one_of(st.sampled_from(["x", "y", "3", "007", ""]), power.map("^".join))
    term = st.tuples(
        st.sampled_from(["", "-", " + ", " - ", "+-"]), st.lists(factor, min_size=1, max_size=3).map("*".join)
    ).map("".join)

    @hypothesis.settings(max_examples=800, deadline=None)
    @hypothesis.given(st.lists(st.one_of(st.sampled_from(_PARSE_PIECES), term), max_size=12).map("".join))
    def check(text):
        assert parse_outcome(poly_parse, text, R2) == parse_outcome(oracle_parse, text, R2)

    check()


def test_parse_oracle_agrees_on_fixed_cases():
    # every error the parser raises, and names a ring can hold but the
    # grammar cannot write
    odd = Ring(["x", "2", "+", "@"], "lex", M7)
    cases = [
        (R2, "x^2*y + 3*x - 1"), (R2, "- -x + +y"), (R2, ""), (R2, "   "),
        (R2, "x + w"), (R2, "x @ y"), (R2, "x + w @"), (R2, "x +"), (R2, "* x"),
        (R2, "x ^ y"), (R2, "x^"), (R2, "x^65536"), (R2, "x^65535*x"), (R2, "x 2"),
        (R2, "x 007"), (R2, "2*3^2"), (R2, "x*^"), (R2, "x*"), (R2, "\u0663*x"),
        (R2, "x\u00b2"), (odd, "x*2 + 2"), (odd, "x*+"), (odd, "x + @"),
    ]
    for ring, text in cases:
        assert parse_outcome(poly_parse, text, ring) == parse_outcome(oracle_parse, text, ring), text


def test_parse_format_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rings = [
        Ring(["x", "y", "z"], order, FieldModulus(p))
        for order in ("grevlex", "deglex", "lex")
        for p in (3, 7, 65537, 2147483629)
    ]

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        ring = data.draw(st.sampled_from(rings))
        exps = st.tuples(*[st.integers(0, _EXP_LIMIT - 1)] * ring.n_vars)
        small = st.tuples(*[st.integers(0, 3)] * ring.n_vars)
        coeff = st.integers(0, ring.modulus.p - 1)
        terms = data.draw(st.lists(st.tuples(st.one_of(small, exps), coeff), max_size=8))
        f = poly_normalize(terms, ring)
        assert poly_parse(poly_format(f), ring) == f

    check()
