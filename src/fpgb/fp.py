"""Exact arithmetic in F_p for odd primes p < 2^31.

The arithmetic is the vector kernels below (``add_vec``, ``mul_vec``,
``matmul_mod``, ``inv_vec`` and the per-backend reductions); there is no
scalar element type.  Residues are 64-bit unsigned values kept in [0, p)
at module boundaries.  Three reduction kernels are provided, and
``mul_vec`` runs the one a ``FieldModulus`` names:

- ``naive``:      products reduced with the hardware remainder,
- ``barrett``:    reduction by a precomputed reciprocal mu = floor(2^62 / p),
- ``montgomery``: R = 2^32 scaled residues with division-free reduction.

All products of two residues fit in 64 bits (p < 2^31 so a*b < 2^62), which
also bounds the Barrett input regime.  The numeric engines compute in the
standard domain: products of residues, reduced with ``%``.  Inner loops may
accumulate up to ``lazy_window_k`` unreduced products before a single
reduction; the window is chosen so the running sum never overflows 64 bits.
Exact dense products mod p are ``matmul_mod``'s alone, and ``float_exact``
is the one float64 bound, which psge's level sweep also reads.
"""

from __future__ import annotations

import enum
import functools
import itertools

import numpy as np

from .errors import NonInvertibleError, PreconditionError

_MASK32 = 0xFFFFFFFF
_BARRETT_LIMIT = 1 << 62
_MONT_R_BITS = 32
_MONT_R = 1 << 32

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Backend(enum.Enum):
    NAIVE = "naive"
    BARRETT = "barrett"
    MONTGOMERY = "montgomery"


@functools.lru_cache(maxsize=64, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the 64-bit range.

    The verdict is memoized for the 64 most recently used n, so a process
    that builds many ``FieldModulus`` objects for one prime proves it once.
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _newton_inv_pow2(p: int, bits: int) -> int:
    """Inverse of odd p modulo 2^bits by Newton iteration on masked words."""
    mask = (1 << bits) - 1
    x = p & mask  # correct modulo 2^3 for odd p
    for _ in range(6):  # doubles precision each step: 3 -> 6 -> ... -> 96 bits
        x = (x * (2 - p * x)) & mask
    return x


class FieldModulus:
    """Immutable modulus object carrying precomputed backend constants.

    Safe to share across threads; all operations taking a FieldModulus are
    pure functions of their inputs.
    """

    __slots__ = (
        "p",
        "backend",
        "barrett_mu",
        "mont_pprime",
        "mont_r2",
        "lazy_window_k",
        "_p_u64",
    )

    def __init__(self, p: int, backend: Backend | str = Backend.NAIVE):
        try:
            backend = Backend(backend)
        except ValueError:
            raise PreconditionError(f"unknown backend {backend!r}") from None
        if not (2 < p < (1 << 31)):
            raise PreconditionError(f"modulus must satisfy 2 < p < 2^31, got {p}")
        if p % 2 == 0 or not is_prime(p):
            raise PreconditionError(f"modulus must be an odd prime, got {p}")
        self.p = p
        self.backend = backend
        self.barrett_mu = _BARRETT_LIMIT // p
        pinv = _newton_inv_pow2(p, _MONT_R_BITS)
        self.mont_pprime = (-pinv) % _MONT_R
        assert (p * self.mont_pprime) % _MONT_R == _MONT_R - 1
        self.mont_r2 = (_MONT_R * _MONT_R) % p
        self.lazy_window_k = min(16, (1 << 64) // ((p - 1) * (p - 1)))
        assert self.lazy_window_k * (p - 1) * (p - 1) < 1 << 64
        self._p_u64 = np.uint64(p)

    def __repr__(self):
        return f"FieldModulus(p={self.p}, backend={self.backend.value})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldModulus)
            and self.p == other.p
            and self.backend is other.backend
        )

    def __hash__(self):
        return hash((self.p, self.backend))


# ---------------------------------------------------------------------------
# Vector kernels.  Arrays are uint64 residues; callers guarantee values < p
# (standard domain) so every pairwise product stays below 2^62.
# ---------------------------------------------------------------------------


def add_vec(a: np.ndarray, b: np.ndarray, m: FieldModulus) -> np.ndarray:
    r = a + b
    return r - (r >= m._p_u64) * m._p_u64


def naive_mul_vec(a: np.ndarray, b: np.ndarray, m: FieldModulus) -> np.ndarray:
    return (a * b) % m._p_u64


def barrett_reduce_vec(x: np.ndarray, m: FieldModulus) -> np.ndarray:
    """Vector Barrett reduction of values < 2^62.

    The 126-bit product x*mu is assembled from 32-bit halves so the high
    bits needed for the quotient never overflow a 64-bit lane.
    """
    mu = m.barrett_mu
    m1 = np.uint64(mu >> 32)
    m0 = np.uint64(mu & _MASK32)
    x1 = x >> np.uint64(32)
    x0 = x & np.uint64(_MASK32)
    d = x0 * m0
    mid = x1 * m0 + x0 * m1 + (d >> np.uint64(32))
    q = (x1 * m1 << np.uint64(2)) + (mid >> np.uint64(30))
    r = x - q * m._p_u64
    r = r - (r >= m._p_u64) * m._p_u64
    return r - (r >= m._p_u64) * m._p_u64


def mont_mul_vec(a: np.ndarray, b: np.ndarray, m: FieldModulus) -> np.ndarray:
    t = a * b
    mm = ((t & np.uint64(_MASK32)) * np.uint64(m.mont_pprime)) & np.uint64(_MASK32)
    u = (t + mm * m._p_u64) >> np.uint64(_MONT_R_BITS)
    return u - (u >= m._p_u64) * m._p_u64


def mont_enter_vec(a: np.ndarray, m: FieldModulus) -> np.ndarray:
    return mont_mul_vec(a, np.uint64(m.mont_r2), m)


def mont_leave_vec(a: np.ndarray, m: FieldModulus) -> np.ndarray:
    return mont_mul_vec(a, np.uint64(1), m)


def mul_vec(a: np.ndarray, b: np.ndarray, m: FieldModulus) -> np.ndarray:
    """Standard-domain product through the configured backend.

    The Montgomery backend enters the domain, multiplies, and leaves, so
    all three backends agree elementwise on standard residues.
    """
    if m.backend is Backend.NAIVE:
        return naive_mul_vec(a, b, m)
    if m.backend is Backend.BARRETT:
        return barrett_reduce_vec(a * b, m)
    return mont_leave_vec(mont_mul_vec(mont_enter_vec(a, m), mont_enter_vec(b, m), m), m)


def float_exact(k: int, p: int) -> bool:
    """Whether float64 sums k products of two residues exactly, with room for ``mod_exact``.

    Each partial sum is an integer of magnitude at most k (p-1)^2; float64
    holds every integer up to 2^53, and ``mod_exact`` needs p more of headroom.
    """
    return k * (p - 1) ** 2 + p < 1 << 53


def mod_exact(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers with |x| + p <= 2^53.

    The rounded quotient is within 2/p of x/p, so its floor q is off by at
    most one.  Then |q p| <= |x| + p, so q p and x - q p are exact, the
    latter in [-p, 2p), and one correction each way brings it to [0, p).
    Several times faster than ``np.mod``, which divides exactly.
    """
    q = np.floor(x * (1.0 / p))
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def matmul_mod(X: np.ndarray, Y: np.ndarray, m: FieldModulus) -> np.ndarray:
    """Exact standard-domain X @ Y mod p as uint64, broadcast like ``@``.

    X and Y hold residues, as uint64 or float64.  The tier follows from the
    inner dimension K and p: one float64 product through BLAS while
    ``float_exact(K, p)``; one uint64 product while K (p-1)^2 < 2^64; past
    that (31-bit primes once K > 3) Y split into 16-bit halves: a product
    with a half is below 2^47, so slices of 2^15 terms sum exactly.
    """
    K, p, pp = X.shape[-1], m.p, m._p_u64
    if float_exact(K, p):
        W = X.astype(np.float64, copy=False) @ Y.astype(np.float64, copy=False)
        return mod_exact(W, p).astype(np.uint64)
    X, Y = X.astype(np.uint64, copy=False), Y.astype(np.uint64, copy=False)
    if K * (p - 1) ** 2 < 1 << 64:
        return (X @ Y) % pp
    lo, hi = Y & np.uint64(0xFFFF), Y >> np.uint64(16)
    out = 0
    for k in range(0, K, 1 << 15):
        x, at = X[..., k : k + (1 << 15)], slice(k, k + (1 << 15))
        out = (out + (x @ hi[..., at, :] % pp << np.uint64(16)) + x @ lo[..., at, :]) % pp
    return out


def inv_list(std: list, p: int) -> list:
    """Inverses of standard residues (Python ints) by Montgomery's batch inversion.

    One ``pow`` for the whole list: the inverse of the product of all
    values, unwound through the prefix products.  A zero raises.
    """
    if 0 in std:
        raise NonInvertibleError("zero is not invertible")
    if not std:
        return []
    prefix = list(itertools.accumulate(std, lambda a, b: a * b % p))
    inv = pow(prefix[-1], p - 2, p)
    out = [0] * len(std)
    for i in range(len(std) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % p
        inv = inv * std[i] % p
    out[0] = inv
    return out


def inv_vec(x: np.ndarray, m: FieldModulus) -> np.ndarray:
    """``inv_list`` on a uint64 vector of standard residues."""
    return np.array(inv_list(np.asarray(x, dtype=np.uint64).tolist(), m.p), dtype=np.uint64)
