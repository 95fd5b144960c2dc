"""How fast the host runs right now, measured with a fixed reference computation.

The shared host this benchmark was built on changes speed by up to 2x in
phases that last minutes, with CPU time equal to wall time, so the time an
op takes says as much about the phase as about fpgb.  ``reference_work``
is a fixed computation that shares no code with fpgb but is written in the
same style: Python loops over tuples and dicts, and many numpy calls on
small int64 arrays, as in F4's symbolic step and its sparse elimination.
The worker times it between ops, and each op time is scaled by
``REFERENCE_S`` over the reference times taken just before and just after
the op (run.py).  A change to fpgb cannot move the reference
computation, so it cannot hide behind the correction.
"""

from __future__ import annotations

import time

import numpy as np

P = 65537
# median of 171 timings of reference_work() over five minutes on the 2-vCPU
# Intel Xeon sandbox the baseline was measured on; times reported are scaled
# to this speed
REFERENCE_S = 0.073
# calls of reference_work() per timing.  One call varies more from one
# timing to the next than a 2 s op does, and scaling an op by it made the op
# times of a run spread 0.18 where the unscaled ones spread 0.12; the mean
# of three calls brought that to 0.12.
REPEATS = 3


def _poly_products(rng) -> int:
    """Products of sparse polynomials held as {exponent tuple: coefficient}."""
    polys = []
    for _ in range(4):
        exps = rng.integers(0, 5, (40, 4)).tolist()
        coeffs = rng.integers(1, P, 40).tolist()
        polys.append({tuple(e): c for e, c in zip(exps, coeffs)})
    acc = 0
    for f in polys:
        for g in polys:
            h: dict = {}
            for ea, ca in f.items():
                for eb, cb in g.items():
                    m = tuple(x + y for x, y in zip(ea, eb))
                    h[m] = (h.get(m, 0) + ca * cb) % P
            acc = (acc + len(h) + sum(h.values())) % P
    return acc


def _sorted_keys(rng) -> int:
    """Sorting, deduplicating and indexing packed keys, as the dictionary build does."""
    acc = 0
    for _ in range(16):
        keys = rng.integers(0, 1 << 20, 4000)
        uniq = np.unique(keys)
        idx = np.searchsorted(uniq, keys[np.argsort(keys, kind="stable")])
        acc = (acc + int(np.cumsum(idx)[-1]) + len(uniq)) % P
    return acc


def _row_reduce(rng) -> int:
    """Gaussian elimination mod P, one row operation per numpy call."""
    A = rng.integers(0, P, (120, 160))
    rank = 0
    for c in range(A.shape[1]):
        rows = np.nonzero(A[rank:, c])[0]
        if len(rows) == 0:
            continue
        r = rank + int(rows[0])
        A[[rank, r]] = A[[r, rank]]
        A[rank] = A[rank] * pow(int(A[rank, c]), P - 2, P) % P
        for i in range(rank + 1, A.shape[0]):
            if A[i, c]:
                A[i] = (A[i] - int(A[i, c]) * A[rank]) % P
        rank += 1
        if rank == A.shape[0]:
            break
    return rank


def reference_work() -> int:
    """The fixed reference computation; returns a checksum so nothing is skipped."""
    rng = np.random.default_rng(20260917)
    return (_poly_products(rng) + _sorted_keys(rng) + _row_reduce(rng)) % P


def time_reference() -> float:
    """Seconds one reference_work() takes now: the mean of ``REPEATS`` calls."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        reference_work()
    return (time.perf_counter() - t0) / REPEATS
