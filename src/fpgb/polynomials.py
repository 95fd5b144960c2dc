"""Sparse polynomials: canonical term lists, a text parser, and SOA storage.

``Poly`` is the exact scalar representation used as ground truth everywhere:
a tuple of (exponent-tuple, coefficient) terms sorted strictly descending in
the ring's term order, all coefficients nonzero in [0, p).  The zero
polynomial is the empty term list.

``SoaPolySet`` stores many polynomials as flat structure-of-arrays streams
(packed keys, coefficients, per-polynomial offsets/lengths) for the bulk
compilation pipeline.  Coefficients are standard-domain residues.

Grammar accepted by the parser (no parentheses, no implicit products)::

    poly   :=  ['-'] term (('+'|'-') term)*
    term   :=  factor ('*' factor)*
    factor :=  INT | VAR ['^' INT]
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import PolyParseError, PropertyViolationError
from .monomials import Ring, key_cmp_rows, key_pack_vec, mon_format, mon_mul

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^]))")
_EXP_LIMIT = 1 << 16


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
        exps = tuple(int(e) for e in exps)
        c = (acc.get(exps, 0) + int(coeff)) % p
        if c:
            acc[exps] = c
        else:
            acc.pop(exps, None)
    ordered = sorted(acc.items(), key=lambda t: ring.sort_key(t[0]), reverse=True)
    return Poly(ring, tuple(ordered))


def poly_from_dict(d: dict, ring: Ring) -> Poly:
    return poly_normalize(d.items(), ring)


def poly_parse(text: str, ring: Ring) -> Poly:
    """Parse one polynomial in the fixed grammar; errors carry positions."""
    tokens = []
    pos = 0
    while pos < len(text):
        mt = _TOKEN_RE.match(text, pos)
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
                    where = tokens[i][2] if i < n else len(tokens)
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
        # leading sign of the term
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


def poly_mul_mon(t, f: Poly) -> Poly:
    """Shift every monomial of f by t; order and term count are preserved."""
    if f.is_zero():
        return f
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
    """Flat key/coefficient streams with per-polynomial segment table.

    Within each segment keys descend strictly (leading term first), all
    coefficients are nonzero standard residues, and ``offset`` is the
    exclusive prefix sum of ``length`` (length n_polys + 1).  ``exps`` is
    the unpacked exponent matrix kept alongside for shift kernels.
    """

    ring: Ring
    mon_key: np.ndarray  # (M, W) uint64
    coeff: np.ndarray  # (M,) uint64
    offset: np.ndarray  # (n+1,) int64
    length: np.ndarray  # (n,) int64
    exps: np.ndarray  # (M, n_vars) int64

    def __len__(self):
        return len(self.length)

    def validate(self):
        if not (
            self.offset[0] == 0
            and np.array_equal(np.diff(self.offset), self.length)
            and self.offset[-1] == len(self.coeff) == len(self.mon_key)
        ):
            raise PropertyViolationError("segment table disagrees with the streams")
        p = self.ring.modulus.p
        if len(self.coeff) and not (self.coeff.min() >= 1 and self.coeff.max() < p):
            raise PropertyViolationError("coefficient outside 1..p-1")
        for s, e in zip(self.offset[:-1], self.offset[1:]):
            seg = self.mon_key[s:e]
            if not (key_cmp_rows(seg[:-1], seg[1:]) == 1).all():
                raise PropertyViolationError("segment keys not descending")


def soa_pack(polys, ring: Ring) -> SoaPolySet:
    """Pack a list of Poly into one SOA set; ``soa_polys`` unpacks it."""
    lengths = np.array([len(f.terms) for f in polys], dtype=np.int64)
    offset = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    total = int(offset[-1])
    exps = np.zeros((total, ring.n_vars), dtype=np.int64)
    coeff = np.zeros(total, dtype=np.uint64)
    at = 0
    for f in polys:
        for e, c in f.terms:
            exps[at] = e
            coeff[at] = c
            at += 1
    mon_key = key_pack_vec(exps, ring) if total else np.zeros((0, ring.n_key_words), dtype=np.uint64)
    return SoaPolySet(ring, mon_key, coeff, offset, lengths, exps)


def soa_concat(a: SoaPolySet, b: SoaPolySet) -> SoaPolySet:
    """The polynomials of ``a`` followed by those of ``b``, as one set."""
    return SoaPolySet(
        a.ring,
        np.concatenate([a.mon_key, b.mon_key]),
        np.concatenate([a.coeff, b.coeff]),
        np.concatenate([a.offset, a.offset[-1] + b.offset[1:]]),
        np.concatenate([a.length, b.length]),
        np.concatenate([a.exps, b.exps]),
    )


def soa_polys(s: SoaPolySet) -> list:
    """The members of ``s`` as ``Poly`` objects; ``soa_polys(soa_pack(L)) == L``.

    One ``tolist`` per stream, then one tuple slice per member.
    """
    terms = list(zip(map(tuple, s.exps.tolist()), s.coeff.tolist()))
    bounds = s.offset.tolist()
    return [Poly(s.ring, tuple(terms[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]
