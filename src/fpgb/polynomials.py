"""Sparse polynomials: canonical term lists, a text parser, and SOA storage.

``Poly`` is the exact scalar representation used as ground truth everywhere:
a tuple of (exponent-tuple, coefficient) terms sorted strictly descending in
the ring's term order, all coefficients nonzero in [0, p).  The zero
polynomial is the empty term list.

``SoaPolySet`` stores many polynomials as flat structure-of-arrays streams
(exponent rows, coefficients, per-polynomial offsets) for the bulk
compilation pipeline.  Coefficients are standard-domain residues.

Grammar accepted by the parser (no parentheses, no implicit products)::

    poly   :=  ['-'] term (('+'|'-') term)*
    term   :=  factor ('*' factor)*
    factor :=  INT | VAR ['^' INT]
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .errors import PolyParseError, PropertyViolationError
from .monomials import (
    _DEG_LIMIT, _EXP_LIMIT, Ring, key_cmp_rows, key_pack_vec, mon_format, mon_mul
)

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
# One token per match: an integer, a name, an operator, or any other
# non-space character, which only ever ends the parse with an error.
_TOKEN_RE = re.compile(rf"\d+|{_NAME}|[-+*^]|\S")
# a character that begins no integer, name or operator token
_STRAY_RE = re.compile(r"[^\s\dA-Za-z_*^+-]")
_SIGNS = ("+", "-")
_INT_DIGITS = 4300  # Python's default limit on the digits of an int read from text


@dataclass(frozen=True)
class Poly:
    """Canonical sparse polynomial over its ring."""

    ring: Ring
    terms: tuple = field(default=())  # ((exps, coeff), ...) descending

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self):
        """Leading monomial (exponent tuple)."""
        return self.terms[0][0]

    def lc(self) -> int:
        return self.terms[0][1]

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=-1)

    def __len__(self):
        return len(self.terms)

    def __str__(self):
        return poly_format(self)

    def __repr__(self):
        return f"Poly({poly_format(self)!r} mod {self.ring.modulus.p})"


def poly_normalize(terms, ring: Ring) -> Poly:
    """Combine equal monomials mod p, drop zeros, sort descending."""
    p = ring.modulus.p
    acc: dict = {}
    for exps, coeff in terms:
        exps = tuple(map(int, exps))
        c = (acc.get(exps, 0) + int(coeff)) % p
        if c:
            acc[exps] = c
        else:
            acc.pop(exps, None)
    ordered = sorted(acc.items(), key=lambda t: ring.sort_key(t[0]), reverse=True)
    return Poly(ring, tuple(ordered))


def poly_from_dict(d: dict, ring: Ring) -> Poly:
    return poly_normalize(d.items(), ring)


def _parse_error(text: str, at, message: str) -> PolyParseError:
    """The error for ``message`` at token ``at`` (``None``: the end of the text).

    A stray character anywhere in the text is reported instead, wherever
    the grammar walk stopped.  Positions are computed here, only on failure.
    """
    stray = _STRAY_RE.search(text)
    if stray is not None:
        return PolyParseError(f"unexpected character {stray.group()!r}", position=stray.start())
    if at is None:
        return PolyParseError(message, position=len(text))
    token = next(itertools.islice(_TOKEN_RE.finditer(text), at, None))
    return PolyParseError(message, position=token.start())


def _integer(text: str, tokens: list, at: int) -> int:
    """Integer token ``at``; one of more than ``_INT_DIGITS`` digits is a parse error."""
    tok = tokens[at]
    if len(tok) > _INT_DIGITS:
        raise _parse_error(text, at, f"integer of {len(tok)} digits exceeds {_INT_DIGITS}")
    return int(tok)


def poly_parse(text: str, ring: Ring) -> Poly:
    """Parse one polynomial in the fixed grammar; errors carry positions.

    One ``findall`` splits the text into token strings, and the grammar is
    walked over them directly.
    """
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise PolyParseError("empty polynomial", position=0)
    # a variable whose name is not a name token can never be written
    var_index = {v: i for i, v in enumerate(ring.var_names) if _NAME_RE.fullmatch(v)}
    n = len(tokens)
    terms = []
    i = 0
    while i < n:
        sign = 1
        while tokens[i] in _SIGNS:
            if tokens[i] == "-":
                sign = -sign
            i += 1
            if i == n:
                raise _parse_error(text, None, "dangling sign at end of input")
        exps = [0] * ring.n_vars
        coeff = 1
        while True:
            tok = tokens[i]
            v = var_index.get(tok)
            if v is not None:
                at = i
                e = 1
                i += 1
                if i < n and tokens[i] == "^":
                    i += 1
                    if i == n or not tokens[i].isdecimal():
                        where = i if i < n else None
                        raise _parse_error(text, where, "expected integer exponent after '^'")
                    e = _integer(text, tokens, i)
                    if e >= _EXP_LIMIT:
                        raise _parse_error(text, i, f"exponent {e} overflows 16-bit lane")
                    i += 1
                exps[v] += e
                if exps[v] >= _EXP_LIMIT:
                    raise _parse_error(text, at, "accumulated exponent overflows 16-bit lane")
            elif tok.isdecimal():
                coeff *= _integer(text, tokens, i)
                i += 1
            elif _NAME_RE.match(tok):
                raise _parse_error(text, i, f"unknown variable {tok!r}")
            else:
                raise _parse_error(text, i, f"expected a factor, found {tok!r}")
            if i == n or tokens[i] != "*":
                break
            i += 1
            if i == n:
                raise _parse_error(text, None, "dangling '*' at end of input")
        terms.append((tuple(exps), sign * coeff))
        if i < n and tokens[i] not in _SIGNS:
            tok = tokens[i]
            found = _integer(text, tokens, i) if tok.isdecimal() else tok
            raise _parse_error(text, i, f"expected '+' or '-', found {found!r}")
    return poly_normalize(terms, ring)


def poly_format(f: Poly) -> str:
    """Canonical text form; coefficients are reduced representatives."""
    if f.is_zero():
        return "0"
    parts = []
    for exps, coeff in f.terms:
        mon = mon_format(exps, f.ring)
        if mon == "1":
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(mon)
        else:
            parts.append(f"{coeff}*{mon}")
    return " + ".join(parts)


def shift_fits(t, arity: int, top: int, deg: int) -> bool:
    """Whether shifting monomials of this arity, largest exponent ``top``
    and largest degree ``deg`` by ``t`` keeps every product in its lanes.

    When it does, no ``mon_mul`` of t by one of them can raise, so the
    lanes are checked once per polynomial rather than once per term.
    """
    return len(t) == arity and max(t) + top < _EXP_LIMIT and sum(t) + deg < _DEG_LIMIT


def poly_mul_mon(t, f: Poly) -> Poly:
    """Shift every monomial of f by t; order and term count are preserved.

    One ``shift_fits`` test for the whole polynomial; if it fails, each
    term goes through ``mon_mul``, which raises at the first product that
    overflows a lane or has the wrong arity.
    """
    if f.is_zero():
        return f
    exps = [e for e, _ in f.terms]
    if shift_fits(t, len(exps[0]), max(map(max, exps)), max(map(sum, exps))):
        shifted = tuple((tuple(map(add, t, e)), c) for e, c in f.terms)
    else:
        shifted = tuple((mon_mul(t, e), c) for e, c in f.terms)
    return Poly(f.ring, shifted)


def poly_scale(f: Poly, c: int) -> Poly:
    p = f.ring.modulus.p
    c %= p
    if c == 0:
        return Poly(f.ring)
    if c == 1:
        return f
    return Poly(f.ring, tuple((e, coeff * c % p) for e, coeff in f.terms))


def poly_add_scaled(f: Poly, c: int, g: Poly) -> Poly:
    """Exact f + c*g by a single descending merge of the two term lists."""
    ring = f.ring
    p = ring.modulus.p
    c %= p
    if c == 0 or g.is_zero():
        return f
    key = ring.sort_key
    ft, gt = f.terms, g.terms
    out = []
    i = j = 0
    while i < len(ft) and j < len(gt):
        kf, kg = key(ft[i][0]), key(gt[j][0])
        if kf > kg:
            out.append(ft[i])
            i += 1
        elif kf < kg:
            v = c * gt[j][1] % p
            if v:
                out.append((gt[j][0], v))
            j += 1
        else:
            v = (ft[i][1] + c * gt[j][1]) % p
            if v:
                out.append((ft[i][0], v))
            i += 1
            j += 1
    out.extend(ft[i:])
    for e, coeff in gt[j:]:
        v = c * coeff % p
        if v:
            out.append((e, v))
    return Poly(ring, tuple(out))


def poly_monic(f: Poly) -> Poly:
    if f.is_zero():
        return f
    inv = pow(f.lc(), f.ring.modulus.p - 2, f.ring.modulus.p)
    return poly_scale(f, inv)


# ---------------------------------------------------------------------------
# Structure-of-arrays storage
# ---------------------------------------------------------------------------


@dataclass
class SoaPolySet:
    """Flat exponent/coefficient streams with a per-polynomial segment table.

    Member i is rows ``offset[i]:offset[i + 1]``, terms strictly descending
    in the term order (leading term first), all coefficients nonzero
    standard residues; ``offset`` starts at 0, and its ``np.diff`` is the
    members' lengths.
    """

    ring: Ring
    exps: np.ndarray  # (M, n_vars) int64
    coeff: np.ndarray  # (M,) uint64
    offset: np.ndarray  # (n+1,) int64

    def __len__(self):
        return len(self.offset) - 1

    def validate(self):
        if not (
            self.offset[0] == 0
            and (np.diff(self.offset) >= 0).all()
            and self.offset[-1] == len(self.coeff) == len(self.exps)
        ):
            raise PropertyViolationError("segment table disagrees with the streams")
        p = self.ring.modulus.p
        if len(self.coeff) and not (self.coeff.min() >= 1 and self.coeff.max() < p):
            raise PropertyViolationError("coefficient outside 1..p-1")
        keys = key_pack_vec(self.exps, self.ring)
        for s, e in zip(self.offset[:-1], self.offset[1:]):
            seg = keys[s:e]
            if not (key_cmp_rows(seg[:-1], seg[1:]) == 1).all():
                raise PropertyViolationError("segment keys not descending")


def soa_pack(polys, ring: Ring) -> SoaPolySet:
    """Pack a list of Poly into one SOA set; ``soa_polys`` unpacks it."""
    terms = [t for f in polys for t in f.terms]
    exps = np.array([e for e, _ in terms], dtype=np.int64).reshape(len(terms), ring.n_vars)
    coeff = np.array([c for _, c in terms], dtype=np.uint64)
    offset = np.cumsum([0] + [len(f.terms) for f in polys], dtype=np.int64)
    return SoaPolySet(ring, exps, coeff, offset)


def soa_concat(a: SoaPolySet, b: SoaPolySet) -> SoaPolySet:
    """The polynomials of ``a`` followed by those of ``b``, as one set."""
    return SoaPolySet(
        a.ring,
        np.concatenate([a.exps, b.exps]),
        np.concatenate([a.coeff, b.coeff]),
        np.concatenate([a.offset, a.offset[-1] + b.offset[1:]]),
    )


def soa_polys(s: SoaPolySet) -> list:
    """The members of ``s`` as ``Poly`` objects; ``soa_polys(soa_pack(L)) == L``.

    One ``tolist`` per stream, then one tuple slice per member.
    """
    terms = list(zip(map(tuple, s.exps.tolist()), s.coeff.tolist()))
    bounds = s.offset.tolist()
    return [Poly(s.ring, tuple(terms[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]
