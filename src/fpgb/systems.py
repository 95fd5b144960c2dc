"""Benchmark system families and the system file format.

File format (UTF-8, LF): line 1 ``p <prime>``, line 2 ``vars <names...>``,
line 3 ``order <grevlex|deglex|lex>``, then one polynomial per non-comment
line in the parser grammar.  Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import PolyParseError, PreconditionError
from .fp import FieldModulus
from .monomials import MAX_VARS, Ring, count_monomials, mon_format
from .polynomials import Poly, poly_normalize, poly_parse


def gen_cyclic(n: int, p: int):
    """Cyclic-n: for k < n the sum of all length-k products of consecutive
    variables (indices mod n), plus x_1...x_n - 1."""
    if not 2 <= n <= MAX_VARS:
        raise PreconditionError(f"cyclic needs 2 <= n <= {MAX_VARS}")
    ring = Ring([f"x{i}" for i in range(n)], "grevlex", FieldModulus(p))
    polys = []
    for k in range(1, n):
        terms = []
        for i in range(n):
            e = [0] * n
            for j in range(i, i + k):
                e[j % n] += 1
            terms.append((tuple(e), 1))
        polys.append(poly_normalize(terms, ring))
    full = tuple([1] * n)
    polys.append(poly_normalize([(full, 1), ((0,) * n, p - 1)], ring))
    return ring, polys


def gen_katsura(n: int, p: int):
    """Katsura-n in variables x_0..x_n.

    One linear relation x_0 + 2(x_1 + ... + x_n) - 1 and, for k = 0..n-1,
    sum over i of x_{|i|} x_{|k-i|} - x_k with indices clipped to |.| <= n.
    """
    if not 1 <= n < MAX_VARS:
        raise PreconditionError(f"katsura needs 1 <= n <= {MAX_VARS - 1} (n + 1 variables)")
    ring = Ring([f"x{i}" for i in range(n + 1)], "grevlex", FieldModulus(p))
    nv = n + 1
    polys = []
    lin = [((tuple(1 if j == 0 else 0 for j in range(nv))), 1)]
    for i in range(1, nv):
        e = [0] * nv
        e[i] = 1
        lin.append((tuple(e), 2))
    lin.append(((0,) * nv, p - 1))
    polys.append(poly_normalize(lin, ring))
    for k in range(n):
        terms = []
        for i in range(-n, n + 1):
            j = k - i
            if abs(j) > n:
                continue
            e = [0] * nv
            e[abs(i)] += 1
            e[abs(j)] += 1
            terms.append((tuple(e), 1))
        e = [0] * nv
        e[k] = 1
        terms.append((tuple(e), p - 1))
        polys.append(poly_normalize(terms, ring))
    return ring, polys


@functools.lru_cache(maxsize=MAX_VARS)
def _degree_le2_monomials(nv: int):
    """The monomials of degree <= 2 in ``nv`` variables, in the order the
    draws index them, and those indices in descending grevlex order."""
    mons = [(0,) * nv]
    for i in range(nv):
        e = [0] * nv
        e[i] = 1
        mons.append(tuple(e))
    for i in range(nv):
        for j in range(i, nv):
            e = [0] * nv
            e[i] += 1
            e[j] += 1
            mons.append(tuple(e))
    assert len(mons) == count_monomials(nv, 2)
    # a term order does not depend on the field
    grevlex = Ring([f"x{i}" for i in range(nv)], "grevlex", FieldModulus(3))
    desc = sorted(range(len(mons)), key=lambda i: grevlex.sort_key(mons[i]), reverse=True)
    return tuple(mons), tuple(desc)


def gen_random_quadratic(
    n: int, m: int, density: float, seed: int, p: int, max_redraws: int = 64
):
    """m random polynomials of degree <= 2 in n variables.

    Every degree-<=2 monomial enters independently with the given density,
    with a uniform nonzero coefficient; zero draws are redrawn from derived
    seeds a bounded number of times.
    """
    if not 0 < density <= 1:
        raise PreconditionError("density must be in (0, 1]")
    if not 1 <= n <= MAX_VARS or m < 1:
        raise PreconditionError(f"need 1 <= n <= {MAX_VARS} and m >= 1")
    ring = Ring([f"x{i}" for i in range(n)], "grevlex", FieldModulus(p))
    # the monomials are distinct and every coefficient drawn is in [1, p), so
    # a draw's canonical term list is its kept monomials in descending order
    mons, desc = _degree_le2_monomials(n)
    root = np.random.SeedSequence(seed)
    polys = []
    for idx in range(m):
        child = root.spawn(1)[0]
        poly = Poly(ring)
        for attempt in range(max_redraws):
            rng = np.random.default_rng(child)
            keep = (rng.random(len(mons)) < density).tolist()
            coeffs = rng.integers(1, p, len(mons)).tolist()
            poly = Poly(ring, tuple((mons[i], coeffs[i]) for i in desc if keep[i]))
            if not poly.is_zero():
                break
            child = child.spawn(1)[0]
        if poly.is_zero():
            raise PreconditionError(f"degenerate draw persisted for polynomial {idx}")
        polys.append(poly)
    return ring, polys


def format_system(ring: Ring, polys) -> str:
    """The system file text of ``polys``, polynomials over ``ring``.

    Each polynomial's line is ``poly_format``'s text; each distinct monomial
    is formatted once per call, since a basis repeats its monomials often.
    """
    lines = [
        f"p {ring.modulus.p}",
        "vars " + " ".join(ring.var_names),
        f"order {ring.order}",
    ]
    mons: dict = {}
    for f in polys:
        terms = []
        for exps, coeff in f.terms:
            mon = mons.get(exps)
            if mon is None:
                mon = mons[exps] = mon_format(exps, ring)
            terms.append(str(coeff) if mon == "1" else mon if coeff == 1 else f"{coeff}*{mon}")
        lines.append(" + ".join(terms) if terms else "0")
    return "\n".join(lines) + "\n"


def parse_system(text: str):
    """Parse a system file; returns (ring, polynomials)."""
    lines = text.split("\n")
    header = []
    body = []
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if len(header) < 3:
            header.append((ln, line))
        else:
            body.append((ln, line))
    if len(header) < 3:
        raise PolyParseError("system file needs p/vars/order header lines", line=len(lines))
    (ln_p, p_line), (ln_v, v_line), (ln_o, o_line) = header
    if not p_line.startswith("p "):
        raise PolyParseError("first header line must be 'p <prime>'", line=ln_p)
    try:
        p = int(p_line.split()[1])
    except (IndexError, ValueError):
        raise PolyParseError("malformed modulus line", line=ln_p)
    if not v_line.startswith("vars "):
        raise PolyParseError("second header line must be 'vars <names...>'", line=ln_v)
    names = v_line.split()[1:]
    if not o_line.startswith("order "):
        raise PolyParseError("third header line must be 'order <name>'", line=ln_o)
    order = o_line.split()[1]
    try:
        ring = Ring(names, order, FieldModulus(p))
    except (ValueError, PreconditionError) as exc:
        raise PolyParseError(f"bad system header: {exc}", line=ln_p)
    polys = []
    for ln, line in body:
        try:
            polys.append(poly_parse(line, ring))
        except PolyParseError as exc:
            raise PolyParseError(f"line {ln}: {exc.message}", line=ln, position=exc.position)
    return ring, polys
