"""Exponent-vector monomials, term orders, and packed comparison keys.

A monomial is a plain tuple of non-negative exponents (one per ring
variable).  For bulk processing every monomial is packed into a fixed-width
big-endian key of 64-bit words whose plain word-lexicographic order refines
the ring's term order exactly:

- graded orders (grevlex, deglex) lead with a 32-bit total-degree lane,
- each exponent occupies a 16-bit lane,
- grevlex tie lanes hold the complemented exponents in reversed variable
  order, so that larger keys are later in the order without a sign flip,
- lex drops the degree lane.

Lanes never straddle word boundaries (all offsets are multiples of 16).
Exponents >= 2^16 or degrees >= 2^32 are hard errors, never silent wraps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArityMismatchError, CorruptKeyError, DivisionError, LaneOverflowError
from .fp import FieldModulus

ORDERS = ("grevlex", "deglex", "lex")

_EXP_BITS = 16
_EXP_LIMIT = 1 << _EXP_BITS
_EXP_MASK = _EXP_LIMIT - 1
_DEG_BITS = 32
_DEG_LIMIT = 1 << _DEG_BITS
MAX_VARS = 32
# entries of one chunk's targets x divisors x n_vars mask in first_divisor
_DIVISOR_CELLS = 1 << 20

Monomial = tuple  # exponent tuple; degree is sum of entries
MonKey = tuple  # packed words, most significant first


class Ring:
    """Polynomial ring descriptor: variables, term order, coefficient field."""

    __slots__ = (
        "var_names",
        "order",
        "modulus",
        "n_vars",
        "n_key_words",
        "graded",
        "_lane_word",
        "_lane_shift",
        "_word_lane",
        "_lane_mask",
        "_key_cache",
    )

    def __init__(self, var_names, order: str, modulus: FieldModulus):
        names = tuple(var_names)
        if not 1 <= len(names) <= MAX_VARS:
            raise ValueError(f"need 1..{MAX_VARS} variables, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if order not in ORDERS:
            raise ValueError(f"unknown order {order!r}; expected one of {ORDERS}")
        self.var_names = names
        self.order = order
        self.modulus = modulus
        self.n_vars = len(names)
        self.graded = order in ("grevlex", "deglex")
        head = _DEG_BITS if self.graded else 0
        total_bits = head + _EXP_BITS * self.n_vars
        self.n_key_words = (total_bits + 63) // 64
        # per-exponent-lane placement (lane i is the i-th 16-bit slot after
        # the optional degree lane)
        offs = [head + _EXP_BITS * i for i in range(self.n_vars)]
        self._lane_word = np.array([o // 64 for o in offs], dtype=np.int64)
        self._lane_shift = np.array([64 - (o % 64) - _EXP_BITS for o in offs], dtype=np.uint64)
        # the first lane of every word: each word starts with a lane at its bit 0
        self._word_lane = np.searchsorted(self._lane_word, np.arange(self.n_key_words))
        # every bit a well-formed key may set: the degree lane and the
        # exponent lanes; the padding after the last lane stays zero
        mask = [0] * self.n_key_words
        if self.graded:
            mask[0] = (_DEG_LIMIT - 1) << 32
        for w, sh in zip(self._lane_word.tolist(), self._lane_shift.tolist()):
            mask[w] |= _EXP_MASK << sh
        self._lane_mask = np.array(mask, dtype=np.uint64)
        self._key_cache: dict = {}

    def sort_key(self, u: Monomial) -> MonKey:
        """Packed key with per-ring memoization (hot path of the poly layer)."""
        k = self._key_cache.get(u)
        if k is None:
            k = mon_key_pack(u, self)
            self._key_cache[u] = k
        return k

    def __repr__(self):
        return f"Ring(vars={self.var_names}, order={self.order}, p={self.modulus.p})"


def _check_arity(u: Monomial, ring: Ring):
    if len(u) != ring.n_vars:
        raise ArityMismatchError(f"expected {ring.n_vars} exponents, got {len(u)}")


def _tie_lanes(exps: np.ndarray, ring: Ring) -> np.ndarray:
    if ring.order == "grevlex":
        return _EXP_MASK - exps[:, ::-1]
    return exps


def order_columns(exps: np.ndarray, ring: Ring) -> list:
    """The ``np.lexsort`` keys that put exponent rows in ascending term order:
    the packed key's fields, least significant first, so no key is packed."""
    cols = list(_tie_lanes(exps, ring).T[::-1])
    if ring.graded:
        cols.append(exps.sum(axis=1))
    return cols


def key_pack_vec(exps: np.ndarray, ring: Ring) -> np.ndarray:
    """Pack an (N, n_vars) exponent matrix into (N, n_key_words) uint64 keys."""
    exps = np.asarray(exps)
    if exps.ndim != 2 or exps.shape[1] != ring.n_vars:
        raise ArityMismatchError(f"expected shape (N, {ring.n_vars}), got {exps.shape}")
    if exps.size and (exps.min() < 0 or exps.max() >= _EXP_LIMIT):
        raise LaneOverflowError("exponent does not fit a 16-bit lane")
    e = exps.astype(np.uint64)
    # lanes hold disjoint bits, so summing a word's shifted lanes places them
    words = np.add.reduceat(_tie_lanes(e, ring) << ring._lane_shift, ring._word_lane, axis=1)
    if ring.graded:
        deg = e.sum(axis=1)
        if e.size and deg.max() >= _DEG_LIMIT:
            raise LaneOverflowError("total degree does not fit the 32-bit degree lane")
        words[:, 0] += deg << np.uint64(32)
    return words


def key_unpack_vec(keys: np.ndarray, ring: Ring) -> np.ndarray:
    """Inverse of key_pack_vec; validates lane consistency.

    A key is rejected exactly when packing its exponents again would not
    give it back: a bit set outside every lane, or (graded orders) a degree
    lane that differs from the sum of the exponents.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 2 or keys.shape[1] != ring.n_key_words:
        raise CorruptKeyError(f"expected shape (N, {ring.n_key_words}), got {keys.shape}")
    lanes = (keys[:, ring._lane_word] >> ring._lane_shift) & np.uint64(_EXP_MASK)
    exps = (_EXP_MASK - lanes[:, ::-1]) if ring.order == "grevlex" else lanes
    exps = exps.astype(np.int64)
    if keys.size and (
        (keys & ~ring._lane_mask).any()
        or (ring.graded and (keys[:, 0] >> np.uint64(32) != exps.sum(axis=1)).any())
    ):
        raise CorruptKeyError("key lanes are internally inconsistent")
    return exps


def mon_key_pack(u: Monomial, ring: Ring) -> MonKey:
    """Scalar pack: plain-integer path, bit-identical to key_pack_vec."""
    _check_arity(u, ring)
    acc = 0
    bits = 0
    if ring.graded:
        deg = 0
        for e in u:
            if not 0 <= e < _EXP_LIMIT:
                raise LaneOverflowError(f"exponent {e} does not fit a 16-bit lane")
            deg += e
        if deg >= _DEG_LIMIT:
            raise LaneOverflowError("total degree does not fit the 32-bit degree lane")
        acc = deg
        bits = _DEG_BITS
        lanes = tuple(_EXP_MASK - e for e in reversed(u)) if ring.order == "grevlex" else u
    else:
        for e in u:
            if not 0 <= e < _EXP_LIMIT:
                raise LaneOverflowError(f"exponent {e} does not fit a 16-bit lane")
        lanes = u
    for lane in lanes:
        acc = (acc << _EXP_BITS) | lane
        bits += _EXP_BITS
    acc <<= ring.n_key_words * 64 - bits
    mask = (1 << 64) - 1
    w = ring.n_key_words
    return tuple((acc >> (64 * (w - 1 - i))) & mask for i in range(w))


def mon_compare_vec(u: np.ndarray, v: np.ndarray, ring: Ring) -> np.ndarray:
    """Vectorized direct term-order comparison of row-aligned exponent matrices."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    diff = u - v
    nz = diff != 0
    any_nz = nz.any(axis=1)
    if ring.order == "grevlex":
        idx = ring.n_vars - 1 - np.argmax(nz[:, ::-1], axis=1)
        at = diff[np.arange(len(diff)), idx]
        tie = np.where(any_nz, -np.sign(at), 0)
    else:
        idx = np.argmax(nz, axis=1)
        at = diff[np.arange(len(diff)), idx]
        tie = np.where(any_nz, np.sign(at), 0)
    if ring.graded:
        dd = np.sign(u.sum(axis=1) - v.sum(axis=1))
        return np.where(dd != 0, dd, tie).astype(np.int8)
    return tie.astype(np.int8)


def mon_mul(u: Monomial, v: Monomial) -> Monomial:
    if len(u) != len(v):
        raise ArityMismatchError("arity mismatch in monomial product")
    w = tuple(a + b for a, b in zip(u, v))
    if any(e >= _EXP_LIMIT for e in w) or sum(w) >= _DEG_LIMIT:
        raise LaneOverflowError("monomial product overflows key lanes")
    return w


def mon_lcm(u: Monomial, v: Monomial) -> Monomial:
    if len(u) != len(v):
        raise ArityMismatchError("arity mismatch in lcm")
    return tuple(max(a, b) for a, b in zip(u, v))


def mon_divides(u: Monomial, v: Monomial) -> bool:
    """True iff u divides v componentwise."""
    if len(u) != len(v):
        raise ArityMismatchError("arity mismatch in divisibility test")
    return all(a <= b for a, b in zip(u, v))


def first_divisor(divisors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per target row, the index of the first ``divisors`` row that divides
    it, or -1; both are exponent matrices, one monomial per row.  The mask
    is built over chunks of the targets of at most ``_DIVISOR_CELLS`` entries.
    """
    out = np.full(len(targets), -1, dtype=np.int64)
    if len(divisors) == 0:
        return out
    step = max(1, _DIVISOR_CELLS // divisors.size)
    for s in range(0, len(targets), step):
        divides = (divisors[None, :, :] <= targets[s : s + step, None, :]).all(axis=2)
        out[s : s + step] = np.where(divides.any(axis=1), divides.argmax(axis=1), -1)
    return out


def minimal_rows(x: np.ndarray) -> np.ndarray:
    """Per row of the exponent matrix ``x``, whether no earlier row divides
    it.  A row an earlier one divides has an earlier minimal divisor too.
    """
    return first_divisor(x, x) == np.arange(len(x))


def mon_div(u: Monomial, v: Monomial) -> Monomial:
    """Exact quotient u / v; raises unless v divides u."""
    if len(u) != len(v):
        raise ArityMismatchError("arity mismatch in monomial division")
    if not mon_divides(v, u):
        raise DivisionError(f"{v} does not divide {u}")
    return tuple(a - b for a, b in zip(u, v))


def count_monomials(n: int, d: int):
    """Number of monomials in n variables of total degree <= d: C(n+d, d)."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return math.comb(n + d, d)


def key_cmp_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lexicographic comparison of aligned key-word rows: -1/0/+1 per row.

    Each pair of rows is decided by its first differing word.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape[1] == 1:
        aw, bw = a[:, 0], b[:, 0]
    else:
        rows = np.arange(a.shape[0])
        first = (a != b).argmax(axis=1)
        aw, bw = a[rows, first], b[rows, first]
    return (aw > bw).view(np.int8) - (aw < bw).view(np.int8)


def mon_format(u: Monomial, ring: Ring) -> str:
    """Render as the parser grammar expects: x^2*y style, '1' for the unit."""
    parts = []
    for name, e in zip(ring.var_names, u):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"
