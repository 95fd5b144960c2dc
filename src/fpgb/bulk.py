"""Deterministic data-parallel primitives: scan, radix sort, unique, join, compact.

Every primitive is externally pure and schedule-independent: the same input
produces byte-identical output for any worker-lane count and any lane
processing order.  Each has two routes, chosen by ``ExecPolicy.lanes``:

- one lane (the default) is a single numpy call: a stable ``np.lexsort``,
  one ``np.cumsum``, boolean-mask indexing, one ``lower_bound`` over the
  whole segment (F4's batches sort one-word keys in ``symbolic`` itself,
  lex ones included; only those whose key does not fit one word come here);
- more lanes run the work decomposed exactly as a data-parallel runtime
  would decompose it, with every lane's lane-local work done in lockstep,
  as a GPU radix sort does (Merrill & Grimshaw 2011): one ``bincount`` of
  every lane's digits and one stable argsort keyed by (lane, digit) per
  radix pass, one scan over the lanes as the rows of a zero-padded grid,
  one ``add.reduceat`` counting every lane's kept items, then prefix-summed
  write plans; the join gives each lane a contiguous slice of the segment.
  Only the writes into each lane's disjoint region go one lane at a time,
  in shuffled lane order.  That route is the determinism oracle: it never
  calls the one-lane route's whole-array ``lexsort`` or ``cumsum``, and its
  output must equal the one-lane output byte for byte, which witnesses
  race-freedom of the decomposition rather than of one code path checked
  against itself.

Both routes run the same input checks; every key argument must be a 2-D
word matrix.

Keys are rows of fixed-width uint64 word vectors compared lexicographically
most-significant word first.  The lane-split sort is a stable byte-wise
radix sort with one pass per byte that varies across the keys (at most
8 * n_words passes; ``radix_digits`` lists them), and searching is one
``np.searchsorted`` over a big-endian byte view of the keys, which orders
like the words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingKeyError, PreconditionError
from .monomials import key_cmp_rows


@dataclass(frozen=True)
class ExecPolicy:
    """Worker-lane configuration for the primitives.

    ``lanes`` is the number of contiguous work partitions.  One lane runs
    each primitive as a single numpy call; more lanes run the decomposed
    route whose shuffled lane order witnesses race-freedom.
    ``lane_order_seed`` shuffles the order in which lanes are processed
    (outputs must not depend on it).
    """

    lanes: int = 1
    lane_order_seed: int | None = None


DEFAULT_POLICY = ExecPolicy()


def _lane_bounds(n: int, lanes: int):
    lanes = max(1, lanes)
    step = -(-n // lanes) if n else 0
    bounds = []
    for c in range(lanes):
        lo = min(n, c * step)
        hi = min(n, lo + step)
        bounds.append((lo, hi))
    return bounds


def _lane_order(policy: ExecPolicy, n_lanes: int):
    if policy.lane_order_seed is None:
        return range(n_lanes)
    return np.random.default_rng(policy.lane_order_seed).permutation(n_lanes)


def _word_matrix(keys) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 2:
        raise PreconditionError("keys must be a 2-D word matrix")
    return keys


def radix_pass_count(n_words: int) -> int:
    """Most passes a sort of n_words-word keys can take: one per byte."""
    return 8 * n_words


def radix_digits(keys: np.ndarray) -> list:
    """The (word, byte) digits radix_sort passes over, in pass order.

    Least-significant byte first over all words, keeping only the bytes that
    differ between some two keys: a stable counting pass over a digit that
    every key shares is the identity permutation.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if len(keys) <= 1:
        return []
    varying = np.bitwise_or.reduce(keys ^ keys[0], axis=0).tolist()
    return [
        (word, byte)
        for word in range(keys.shape[1] - 1, -1, -1)
        for byte in range(8)
        if (varying[word] >> (8 * byte)) & 0xFF
    ]


def exclusive_scan(lengths, policy: ExecPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Exclusive prefix sum; result has len+1 entries, last is the total."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size and lengths.min() < 0:
        raise PreconditionError("lengths must be non-negative")
    # the exact (object) sum only when the int64 total could overflow
    if lengths.size and int(lengths.max()) * lengths.size >= 1 << 63:
        if int(np.sum(lengths, dtype=object)) >= 1 << 63:
            raise PreconditionError("scan total overflows 64 bits")
    n = len(lengths)
    out = np.zeros(n + 1, dtype=np.int64)
    if policy.lanes <= 1:
        np.cumsum(lengths, out=out[1:])
        return out
    if n == 0:
        return out
    # the lanes are the rows of one zero-padded (lanes x step) grid: one
    # cumsum scans every lane, and one more over the lane totals bases them
    bounds = _lane_bounds(n, policy.lanes)
    grid = np.zeros(len(bounds) * bounds[0][1], dtype=np.int64)
    grid[:n] = lengths
    scan = np.cumsum(grid.reshape(len(bounds), -1), axis=1)
    totals = scan[:, -1]
    scan += (np.cumsum(totals) - totals)[:, None]
    for c in _lane_order(policy, len(bounds)):
        lo, hi = bounds[c]
        out[lo + 1 : hi + 1] = scan[c, : hi - lo]
    return out


def radix_sort(keys: np.ndarray, policy: ExecPolicy = DEFAULT_POLICY):
    """Stable ascending sort of multi-word keys.

    Returns (sorted_keys, perm) where perm is the stable permutation taking
    input positions to sorted order; apply it to any payload arrays.  One
    lane is a stable ``np.lexsort``; more lanes run one counting pass per
    digit of ``radix_digits(keys)``, so a byte every key shares costs
    nothing, with tables only as wide as the pass's digit span.  Both give
    the same perm.
    """
    keys = _word_matrix(keys)
    n = len(keys)
    if n <= 1:
        return keys.copy(), np.arange(n, dtype=np.int64)
    if policy.lanes <= 1:
        perm = np.lexsort(keys.T[::-1]).astype(np.int64, copy=False)
        return keys[perm], perm
    digits = radix_digits(keys)
    bounds = _lane_bounds(n, policy.lanes)
    n_lanes = len(bounds)
    # every pass's digit of every key at once, less the pass's smallest
    # digit: byte b of word w is column 8w + b of the little-endian bytes
    cols = [8 * word + byte for word, byte in digits]
    dig = np.ascontiguousarray(keys, dtype="<u8").view(np.uint8).reshape(n, -1)[:, cols]
    dig -= dig.min(axis=0)
    spans = dig.max(axis=0).astype(np.int64) + 1
    # (lane, digit) fits 16 bits for up to 256 lanes; numpy sorts those by radix
    lane_of = (np.arange(n) // bounds[0][1]).astype(np.uint16 if n_lanes <= 256 else np.int64)
    rank = np.arange(n)
    perm = np.arange(n, dtype=np.int64)
    # least-significant digit first; each pass is a stable counting sort of
    # every lane in lockstep, then one disjoint scatter per lane
    for k, span in enumerate(spans.tolist()):
        lane_digit = lane_of * lane_of.dtype.type(span) + dig[perm, k]
        order = np.argsort(lane_digit, kind="stable")
        counts = np.bincount(lane_digit, minlength=n_lanes * span)
        # lane c's keys of digit d go after every key of a smaller digit and
        # after lane c' < c's keys of digit d: the exclusive scan of the
        # digit-major table; in ``order`` they start at the lane-major one
        by_digit = counts.reshape(n_lanes, span).T.ravel()
        dst = (np.cumsum(by_digit) - by_digit).reshape(span, n_lanes).T.ravel()
        slot = np.repeat(dst - (np.cumsum(counts) - counts), counts) + rank
        src = perm[order]
        for c in _lane_order(policy, n_lanes):
            lo, hi = bounds[c]
            perm[slot[lo:hi]] = src[lo:hi]
    return keys[perm], perm


def is_sorted_ascending(keys: np.ndarray, strict: bool = False) -> bool:
    keys = np.asarray(keys, dtype=np.uint64)
    if len(keys) <= 1:
        return True
    cmp = key_cmp_rows(keys[:-1], keys[1:])
    return bool((cmp < 0).all()) if strict else bool((cmp <= 0).all())


def unique_sorted(keys: np.ndarray, policy: ExecPolicy = DEFAULT_POLICY, check: bool = True):
    """Deduplicate an ascending key stream.

    Returns (uniques, first_index) with uniques strictly ascending and
    first_index[j] the position of the first occurrence in the input.
    """
    keys = _word_matrix(keys)
    if check and not is_sorted_ascending(keys):
        raise PreconditionError("unique_sorted requires ascending keys")
    if len(keys) == 0:
        return keys.copy(), np.zeros(0, dtype=np.int64)
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    first_index = np.flatnonzero(new).astype(np.int64)
    return stream_compact(keys, new, policy), first_index


def stream_compact(items: np.ndarray, keep: np.ndarray, policy: ExecPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Keep flagged items in their original relative order."""
    items = np.asarray(items)
    keep = np.asarray(keep, dtype=bool)
    if len(items) != len(keep):
        raise PreconditionError("items and mask must have equal length")
    if policy.lanes <= 1:
        return items[keep]
    bounds = _lane_bounds(len(items), policy.lanes)
    # an empty lane starts at len(items), where the padding counts nothing
    lane_counts = np.add.reduceat(
        np.append(keep, False), [lo for lo, _ in bounds], dtype=np.int64
    )
    lane_base = np.cumsum(lane_counts) - lane_counts
    out = np.empty((int(lane_counts.sum()),) + items.shape[1:], dtype=items.dtype)
    for c in _lane_order(policy, len(bounds)):
        lo, hi = bounds[c]
        out[lane_base[c] : lane_base[c] + lane_counts[c]] = items[lo:hi][keep[lo:hi]]
    return out


def segment_defects(row_ptr: np.ndarray, col_ind: np.ndarray, n_cols: int):
    """Per-segment flags of a row-pointer layout: (empty, unordered, outside).

    ``unordered`` marks segments whose columns do not strictly ascend and
    ``outside`` those whose first or last column lies outside [0, n_cols);
    ``row_ptr`` must be non-decreasing and end at ``len(col_ind)``.
    """
    lens = row_ptr[1:] - row_ptr[:-1]
    empty = lens < 1
    row_of = np.repeat(np.arange(len(lens)), lens)
    step_bad = col_ind[1:] <= col_ind[:-1]
    same_row = row_of[1:] == row_of[:-1]
    unordered = np.zeros(len(lens), dtype=bool)
    unordered[row_of[1:][step_bad & same_row]] = True
    outside = np.zeros(len(lens), dtype=bool)
    full = ~empty
    outside[full] = (col_ind[row_ptr[:-1][full]] < 0) | (col_ind[row_ptr[1:][full] - 1] >= n_cols)
    return empty, unordered, outside


def _byte_view(keys: np.ndarray) -> np.ndarray:
    """One opaque big-endian byte string per key; compares like the words."""
    return np.ascontiguousarray(keys, dtype=">u8").view(f"V{8 * keys.shape[1]}")[:, 0]


def lower_bound(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """First position at which each query could be inserted, keeping order."""
    sorted_keys, queries = _word_matrix(sorted_keys), _word_matrix(queries)
    return np.searchsorted(_byte_view(sorted_keys), _byte_view(queries)).astype(np.int64)


def merge_join_index(
    segment: np.ndarray,
    dict_keys: np.ndarray,
    policy: ExecPolicy = DEFAULT_POLICY,
    check: bool = True,
) -> np.ndarray:
    """Position of every segment key inside a strictly ascending dictionary.

    One lane runs one ``lower_bound`` over the whole segment.  More lanes
    split the segment into one contiguous slice per lane, as
    ``stream_compact`` does, and each nonempty lane runs one ``lower_bound``
    of its slice and writes its own region of the output.  A key's position
    does not depend on the split.  Absent keys, an empty dictionary
    included, indicate an upstream closure defect and raise MissingKeyError.
    """
    segment, dict_keys = _word_matrix(segment), _word_matrix(dict_keys)
    if check and not is_sorted_ascending(segment):
        raise PreconditionError("segment keys must be ascending")
    if check and not is_sorted_ascending(dict_keys, strict=True):
        raise PreconditionError("dictionary keys must be strictly ascending")
    if len(segment) == 0:
        return np.zeros(0, dtype=np.int64)
    if policy.lanes <= 1:
        out = lower_bound(dict_keys, segment)
    else:
        out = np.empty(len(segment), dtype=np.int64)
        bounds = _lane_bounds(len(segment), policy.lanes)
        for c in _lane_order(policy, len(bounds)):
            lo, hi = bounds[c]
            if lo < hi:
                out[lo:hi] = lower_bound(dict_keys, segment[lo:hi])
    found = out < len(dict_keys)
    bad = ~found
    bad[found] = (dict_keys[out[found]] != segment[found]).any(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise MissingKeyError(f"key {tuple(segment[i].tolist())} absent from dictionary")
    return out
