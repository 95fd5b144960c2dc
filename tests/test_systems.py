"""Benchmark family generators and the system file format."""

import hashlib

import numpy as np
import pytest

from fpgb.errors import PolyParseError, PreconditionError
from fpgb.monomials import count_monomials
from fpgb.polynomials import poly_format, poly_normalize
from fpgb.systems import (
    format_system,
    gen_cyclic,
    gen_katsura,
    gen_random_quadratic,
    parse_system,
)


def test_cyclic_examples():
    _, sys2 = gen_cyclic(2, 7)
    assert [poly_format(f) for f in sys2] == ["x0 + x1", "x0*x1 + 6"]
    _, sys3 = gen_cyclic(3, 7)
    assert [poly_format(f) for f in sys3] == [
        "x0 + x1 + x2",
        "x0*x1 + x0*x2 + x1*x2",
        "x0*x1*x2 + 6",
    ]


def test_cyclic_shape():
    for n in range(2, 7):
        _, polys = gen_cyclic(n, 101)
        assert len(polys) == n
        assert [f.degree() for f in polys] == list(range(1, n)) + [n]
    with pytest.raises(PreconditionError):
        gen_cyclic(1, 7)


def test_katsura_example_and_shape():
    _, k1 = gen_katsura(1, 101)
    assert [poly_format(f) for f in k1] == ["x0 + 2*x1 + 100", "x0^2 + 2*x1^2 + 100*x0"]
    for n in range(1, 6):
        ring, polys = gen_katsura(n, 101)
        assert len(polys) == n + 1
        assert ring.n_vars == n + 1


def katsura_reference(n, p):
    """Independent re-derivation: dense convolution over index range [-n, n]."""
    from fpgb.fp import FieldModulus
    from fpgb.monomials import Ring
    from fpgb.polynomials import poly_normalize

    ring = Ring([f"x{i}" for i in range(n + 1)], "grevlex", FieldModulus(p))
    nv = n + 1

    def u(i):
        return abs(i)

    polys = []
    terms = []
    for i in range(-n, n + 1):
        e = [0] * nv
        e[u(i)] += 1
        terms.append((tuple(e), 1))
    terms.append(((0,) * nv, p - 1))
    polys.append(poly_normalize(terms, ring))  # sum of all = 1 (x0 counted once)
    for k in range(n):
        terms = []
        for i in range(-n, n + 1):
            if abs(k - i) > n:
                continue
            e = [0] * nv
            e[u(i)] += 1
            e[u(k - i)] += 1
            terms.append((tuple(e), 1))
        e = [0] * nv
        e[k] = 1
        terms.append((tuple(e), p - 1))
        polys.append(poly_normalize(terms, ring))
    return [f.terms for f in polys]


def test_katsura_cross_check_independent_formula():
    for n in (2, 3):
        _, polys = gen_katsura(n, 101)
        assert [f.terms for f in polys] == katsura_reference(n, 101)


def test_random_quadratic_full_density():
    ring, polys = gen_random_quadratic(3, 2, 1.0, 7, 101)
    for f in polys:
        assert len(f) == count_monomials(3, 2)


def test_random_quadratic_determinism_and_seed_sensitivity():
    _, a = gen_random_quadratic(4, 4, 0.4, 123, 65537)
    _, b = gen_random_quadratic(4, 4, 0.4, 123, 65537)
    _, c = gen_random_quadratic(4, 4, 0.4, 124, 65537)
    assert [f.terms for f in a] == [f.terms for f in b]
    assert [f.terms for f in a] != [f.terms for f in c]
    assert all(not f.is_zero() for f in a)


def test_random_quadratic_many_small_inputs_are_pinned():
    # the 384 systems the many-small benchmark workload draws at seed 1
    seeds = np.random.SeedSequence(1).generate_state(384).tolist()
    text = "".join(format_system(*gen_random_quadratic(3, 3, 0.5, s, 2147483629)) for s in seeds)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ca5be710b0bf7305472d13f307d0e78f6a4acf7eb8be9d03fef32204396030c"
    )


def test_random_quadratic_redraws_are_pinned():
    # at density 0.1 over three monomials most draws are empty: these four
    # polynomials took 4, 2, 0 and 3 redraws
    assert format_system(*gen_random_quadratic(1, 4, 0.1, 3, 7)) == (
        "p 7\nvars x0\norder grevlex\n4*x0^2\n5*x0^2\n6*x0 + 4\nx0\n"
    )
    with pytest.raises(PreconditionError, match="degenerate draw persisted for polynomial 0"):
        gen_random_quadratic(1, 1, 1e-9, 3, 7, max_redraws=3)


def test_random_quadratic_term_lists_are_canonical():
    # each term list is built in descending order without poly_normalize
    for n in range(1, 9):
        ring, polys = gen_random_quadratic(n, 3, 0.7, n, 65537)
        assert [poly_normalize(f.terms, ring).terms for f in polys] == [f.terms for f in polys]


def test_random_quadratic_validation():
    with pytest.raises(PreconditionError):
        gen_random_quadratic(2, 2, 0.0, 0, 7)
    with pytest.raises(PreconditionError):
        gen_random_quadratic(0, 2, 0.5, 0, 7)


def test_system_round_trip():
    ring, polys = gen_cyclic(4, 65537)
    text = format_system(ring, polys)
    ring2, polys2 = parse_system(text)
    assert ring2.var_names == ring.var_names
    assert ring2.order == ring.order
    assert ring2.modulus.p == 65537
    assert [f.terms for f in polys2] == [f.terms for f in polys]


def test_format_system_matches_per_term_poly_format():
    # format_system formats each distinct monomial once per call; its text
    # must be the header and poly_format's line per polynomial, zero included
    from fpgb.fp import FieldModulus
    from fpgb.monomials import Ring

    rng = np.random.default_rng(2718)
    for order in ("grevlex", "deglex", "lex"):
        for p in (3, 7, 65537):
            ring = Ring(["x", "y", "z"], order, FieldModulus(p))
            # few monomials, so the polynomials share them; coefficients of
            # 0 and 1 and the unit monomial (a constant term) are frequent
            mons = [tuple(int(e) for e in rng.integers(0, 3, 3)) for _ in range(6)] + [(0, 0, 0)]
            polys = [poly_normalize([], ring), poly_normalize([((0, 0, 0), 1)], ring)]
            for _ in range(8):
                k = int(rng.integers(0, 6))
                picks = rng.integers(0, len(mons), k)
                coeffs = rng.choice([0, 1, 1, 2, p - 1, int(rng.integers(0, p))], k)
                polys.append(poly_normalize([(mons[i], int(c)) for i, c in zip(picks, coeffs)], ring))
            want = f"p {p}\nvars x y z\norder {order}\n" + "".join(poly_format(f) + "\n" for f in polys)
            assert format_system(ring, polys) == want


def test_system_comments_and_errors():
    text = "# a comment\np 7\nvars x y\norder grevlex\n# another\nx + y\n"
    ring, polys = parse_system(text)
    assert len(polys) == 1
    with pytest.raises(PolyParseError):
        parse_system("p 7\nvars x\n")  # missing order line
    with pytest.raises(PolyParseError):
        parse_system("p 8\nvars x\norder grevlex\nx\n")  # composite modulus
    with pytest.raises(PolyParseError):
        parse_system("p 7\nvars x\norder grevlex\nx + q\n")  # unknown variable
    with pytest.raises(PolyParseError):
        parse_system("p 7\nvars x\norder sideways\nx\n")  # unknown order


def test_system_composite_modulus_fails_every_parse():
    # the primality verdict is memoized; the refusal is not
    for _ in range(3):
        with pytest.raises(PolyParseError, match="bad system header: modulus must be an odd prime, got 9"):
            parse_system("p 9\nvars x\norder grevlex\nx\n")


@pytest.mark.parametrize(
    "line, col",
    [
        ("x + " + "7" * 5000 + "*y", 4),  # a coefficient
        ("x^" + "3" * 5000 + " + y", 2),  # an exponent
        ("x " + "5" * 4301, 2),  # where an operator belongs
    ],
    ids=["coefficient", "exponent", "stray-integer"],
)
def test_system_integer_past_the_digit_limit_is_a_parse_error(line, col):
    # Python refuses to read an int of more than 4,300 digits from text
    with pytest.raises(PolyParseError, match=r"integer of \d+ digits exceeds 4300") as exc:
        parse_system(f"p 7\nvars x y\norder grevlex\n{line}\n")
    assert (exc.value.line, exc.value.position) == (4, col)
    # 4,300 digits still read, as a coefficient reduced mod p
    _, (f,) = parse_system("p 7\nvars x y\norder grevlex\n" + "7" * 4300 + "*x + y\n")
    assert poly_format(f) == "y"


def test_system_parse_error_names_its_column_once():
    with pytest.raises(PolyParseError) as exc:
        parse_system("p 7\nvars x y\norder grevlex\nx + y^\n")
    assert str(exc.value) == "line 4: expected integer exponent after '^' (line 4, col 6)"
