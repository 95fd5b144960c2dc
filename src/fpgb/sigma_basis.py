"""Sigma-bases over F_p and the minimal matrix generators of sequences they give.

A sequence of b x b blocks S_0, S_1, ... is generated by a polynomial
column f when sum_i S_{k+i} f_i = 0 at every offset.  ``block_generator``
finds b such columns of least degree from a sigma-basis (a minimal
approximant basis, Beckermann-Labahn) of [S(x) | -I]: the matrix
Berlekamp-Massey step of block Wiedemann.  At b = 1 it gives the same
polynomial as ``sparselin.berlekamp_massey``.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .fp import FieldModulus, matmul_mod


def column_dependencies(rows: list, order, p: int):
    """Column dependencies of a small matrix over F_p, given as lists of its rows.

    The columns are visited in ``order`` while the rows go to reduced row
    echelon form.  Returns (pivots, zero): the columns independent of the
    ones visited before them, and for each other column j the combination
    {i: c}, c_j = 1, of j and earlier pivots that is zero.  A column that
    is not a pivot is zero in every row not yet pivoted, so it stays zero
    outside the rows of earlier pivots.
    """
    free = list(range(len(rows)))
    pivots, lead = [], {}
    for j in order:
        r = next((i for i in free if rows[i][j]), None)
        if r is None:
            continue
        free.remove(r)
        inv = pow(rows[r][j], p - 2, p)
        pr = rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            c = row[j]
            if c and i != r:
                rows[i] = [(x - c * y) % p for x, y in zip(row, pr)]
        pivots.append(j)
        lead[j] = r
    zero = {}
    for j in order:
        if j not in lead:
            zero[j] = {j: 1, **{i: p - rows[r][j] for i, r in lead.items() if rows[r][j]}}
    return pivots, zero


def _sigma_basis(S: np.ndarray, m: FieldModulus):
    """Minimal approximant basis of [S(x) | -I] to order L = len(S) (Beckermann-Labahn).

    ``S`` holds the b x b coefficients S_0..S_{L-1}.  Returns (P, delta):
    the columns [Q_j; R_j] of P, of shape (deg + 1, 2b, 2b), are a basis of
    the polynomial vectors with S(x) Q(x) = R(x) mod x^L, and delta[j] is
    column j's shifted degree max(deg Q_j, deg R_j + 1).

    One order at a time: the next coefficient of the residual [S | -I] P
    is eliminated column by column in order of increasing delta, so no
    column takes degree from a later one; the columns that stay
    independent, at most b, are multiplied by x instead.
    """
    L, b = S.shape[:2]
    p, w = m.p, 2 * b
    res = np.zeros((L, b, w), dtype=np.uint64)  # [S | -I] P mod x^L, zero below order k
    res[:, :, :b] = S
    res[0, :, b:] = (p - 1) * np.eye(b, dtype=np.uint64)
    P = np.zeros((L + 2, w, w), dtype=np.uint64)
    P[0] = np.eye(w, dtype=np.uint64)
    delta = [0] * b + [1] * b
    for k in range(L):
        up, zero = column_dependencies(res[k].tolist(), sorted(range(w), key=delta.__getitem__), p)
        moved = {j: t for j, t in zero.items() if len(t) > 1}
        deg = max(delta)
        if moved:
            at = list(moved)
            T = np.zeros((w, len(at)), dtype=np.uint64)
            for n, t in enumerate(moved.values()):
                T[list(t), n] = list(t.values())
            P[: deg + 1, :, at] = matmul_mod(P[: deg + 1], T, m)
            res[k + 1 :, :, at] = matmul_mod(res[k + 1 :], T, m)
        # each pivot, as it was, times x: its coefficient k moves to k + 1
        P[1 : deg + 2, :, up] = P[: deg + 1, :, up]
        P[0, :, up] = 0
        res[k + 1 :, :, up] = res[k : L - 1, :, up]
        for j in up:
            delta[j] += 1
    return P[: max(delta) + 1], delta


def block_generator(S, m: FieldModulus) -> list:
    """Minimal right generator of the b x b matrix sequence S_0..S_{L-1} over F_p.

    Returns b polynomial columns, each an array f of shape (d + 1, b),
    ascending in x, with sum_i S_{k+i} f_i = 0 at every offset k with
    k + d < L: the b columns of least shifted degree d in the sigma-basis
    of [S(x) | -I], reversed (f(x) = x^d Q(1/x)), in ascending order of d
    (a column of Q = 0 would need d > L, and the degrees sum to
    b (L + 1), so none is among them).  Each is scaled so that
    the first nonzero entry of its highest nonzero coefficient is 1, so at
    b = 1 and L at least twice the linear complexity it is
    ``berlekamp_massey``'s characteristic polynomial.
    """
    S = np.asarray(S, dtype=np.uint64)
    if S.ndim != 3 or S.shape[1] != S.shape[2] or not len(S) or not S.shape[1]:
        raise PreconditionError(f"need a nonempty sequence of square blocks, got shape {S.shape}")
    p = m.p
    b = S.shape[1]
    P, delta = _sigma_basis(S % np.uint64(p), m)
    out = []
    for j in sorted(range(2 * b), key=delta.__getitem__)[:b]:
        f = P[delta[j] :: -1, :b, j]
        top = f[f.any(axis=1).nonzero()[0][-1]]
        inv = pow(int(top[top.nonzero()[0][0]]), p - 2, p)
        out.append(f * np.uint64(inv) % np.uint64(p))
    return out
