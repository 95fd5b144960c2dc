"""Bulk primitive contracts: results, stability, and schedule independence."""

import bisect

import numpy as np
import pytest

from fpgb import bulk
from fpgb.bulk import (
    ExecPolicy,
    exclusive_scan,
    is_sorted_ascending,
    lower_bound,
    merge_join_index,
    radix_digits,
    radix_sort,
    stream_compact,
    unique_sorted,
)
from fpgb.errors import MissingKeyError, PreconditionError

POLICIES = [
    ExecPolicy(1),
    ExecPolicy(2),
    ExecPolicy(4),
    ExecPolicy(8),
    ExecPolicy(4, lane_order_seed=99),
    ExecPolicy(8, lane_order_seed=1),
    ExecPolicy(3, lane_order_seed=7),
]


def rand_keys(rng, n, words, hi=1 << 16):
    return rng.integers(0, hi, (n, words)).astype(np.uint64)


def sort_oracle(keys):
    """Comparison-sort oracle: stable lexicographic most-significant first."""
    order = np.lexsort(tuple(keys[:, w] for w in range(keys.shape[1] - 1, -1, -1)))
    return keys[order], order


def test_exclusive_scan_examples():
    assert list(exclusive_scan([2, 3, 1])) == [0, 2, 5, 6]
    assert list(exclusive_scan([])) == [0]


def test_exclusive_scan_random_vs_sequential():
    rng = np.random.default_rng(3)
    for policy in POLICIES:
        lens = rng.integers(0, 50, 500)
        off = exclusive_scan(lens, policy)
        assert off[0] == 0
        assert np.array_equal(np.diff(off), lens)


def test_exclusive_scan_rejects_negative():
    for policy in POLICIES:
        with pytest.raises(PreconditionError):
            exclusive_scan([1, -1], policy)


def test_shape_checks_hold_on_every_route():
    flat = np.arange(4, dtype=np.uint64)
    keys = flat.reshape(-1, 1)
    for policy in POLICIES:
        with pytest.raises(PreconditionError, match="2-D"):
            radix_sort(flat, policy)
        with pytest.raises(PreconditionError, match="equal length"):
            stream_compact(np.arange(4), np.ones(3, dtype=bool), policy)
        for check in (True, False):
            with pytest.raises(PreconditionError, match="2-D"):
                unique_sorted(flat, policy, check=check)
            with pytest.raises(PreconditionError, match="2-D"):
                merge_join_index(flat, keys, policy, check=check)
            with pytest.raises(PreconditionError, match="2-D"):
                merge_join_index(keys, flat, policy, check=check)
    with pytest.raises(PreconditionError, match="2-D"):
        lower_bound(flat, keys)
    with pytest.raises(PreconditionError, match="2-D"):
        lower_bound(keys, flat)


def test_radix_sort_fixed_point_and_oracle():
    rng = np.random.default_rng(17)
    for words in (1, 2, 3):
        keys = rand_keys(rng, 4000, words)
        srt, _ = radix_sort(keys)
        again, perm = radix_sort(srt)
        assert np.array_equal(again, srt)
        assert np.array_equal(perm, np.arange(len(srt)))  # stability on sorted input
        want, _ = sort_oracle(keys)
        assert np.array_equal(srt, want)


def test_radix_sort_large_oracle():
    rng = np.random.default_rng(18)
    keys = rand_keys(rng, 100_000, 2, hi=1 << 40)
    srt, perm = radix_sort(keys)
    want, worder = sort_oracle(keys)
    assert np.array_equal(srt, want)
    assert np.array_equal(perm, worder)


def test_radix_sort_stability_on_equal_keys():
    keys = np.zeros((257, 2), dtype=np.uint64)
    for policy in POLICIES:
        _, perm = radix_sort(keys, policy)
        assert np.array_equal(perm, np.arange(257))


def test_radix_sort_schedule_independent():
    rng = np.random.default_rng(55)
    keys = rand_keys(rng, 10_000, 2)
    base, base_perm = radix_sort(keys, POLICIES[0])
    for policy in POLICIES[1:]:
        srt, perm = radix_sort(keys, policy)
        assert srt.tobytes() == base.tobytes()
        assert np.array_equal(perm, base_perm)


def test_unique_sorted_examples():
    keys = np.array([[1], [1], [2]], dtype=np.uint64)
    uniq, first = unique_sorted(keys)
    assert uniq.tolist() == [[1], [2]]
    assert first.tolist() == [0, 2]
    distinct = np.array([[1], [4], [9]], dtype=np.uint64)
    uniq2, first2 = unique_sorted(distinct)
    assert np.array_equal(uniq2, distinct)
    assert first2.tolist() == [0, 1, 2]


def test_unique_sorted_random_vs_set_oracle():
    rng = np.random.default_rng(6)
    for policy in POLICIES:
        keys = rand_keys(rng, 5000, 2, hi=40)
        srt, _ = radix_sort(keys)
        uniq, first = unique_sorted(srt, policy)
        want = sorted({tuple(k) for k in keys.tolist()})
        assert [tuple(u) for u in uniq.tolist()] == want
        assert np.array_equal(srt[first], uniq)
        assert is_sorted_ascending(uniq, strict=True)


def test_unique_sorted_rejects_unsorted():
    keys = np.array([[2], [1]], dtype=np.uint64)
    with pytest.raises(PreconditionError):
        unique_sorted(keys)


def test_stream_compact_contracts():
    items = np.arange(10, dtype=np.int64)
    assert np.array_equal(stream_compact(items, np.ones(10, bool)), items)
    assert len(stream_compact(items, np.zeros(10, bool))) == 0
    rng = np.random.default_rng(2)
    for policy in POLICIES:
        mask = rng.random(10) < 0.4
        got = stream_compact(items, mask, policy)
        assert np.array_equal(got, items[mask])
    wide = rng.integers(0, 9, (10, 3))
    mask = rng.random(10) < 0.5
    assert np.array_equal(stream_compact(wide, mask), wide[mask])


def test_lower_bound_matches_searchsorted():
    rng = np.random.default_rng(21)
    d = np.unique(rng.integers(0, 10_000, 3000)).astype(np.uint64).reshape(-1, 1)
    q = rng.integers(0, 10_000, 500).astype(np.uint64).reshape(-1, 1)
    got = lower_bound(d, q)
    want = np.searchsorted(d[:, 0], q[:, 0], side="left")
    assert np.array_equal(got, want)


def test_merge_join_example():
    # ascending-key picture of the dictionary {x^2 > x*y > y > 1}
    dic = np.array([[1], [5], [7], [9]], dtype=np.uint64)
    seg = np.array([[5], [9]], dtype=np.uint64)
    assert merge_join_index(seg, dic).tolist() == [1, 3]
    empty = np.zeros((0, 1), dtype=np.uint64)
    assert merge_join_index(empty, dic).tolist() == []
    assert merge_join_index(empty, empty).tolist() == []


def test_merge_join_random_vs_binary_search_oracle():
    rng = np.random.default_rng(31)
    for policy in POLICIES:
        pool = np.unique(rng.integers(0, 1 << 30, 4000)).astype(np.uint64)
        dic = pool.reshape(-1, 1)
        pick = np.sort(rng.integers(0, len(pool), 2000))
        seg = dic[pick]
        got = merge_join_index(seg, dic, policy)
        want = np.searchsorted(pool, seg[:, 0])
        assert np.array_equal(got, want)


def test_merge_join_large_grain_crossing():
    rng = np.random.default_rng(32)
    pool = np.unique(rng.integers(0, 1 << 45, 30_000)).astype(np.uint64)
    dic = np.stack([pool >> np.uint64(20), pool & np.uint64((1 << 20) - 1)], axis=1)
    dic, _ = radix_sort(dic)
    idx = np.sort(rng.integers(0, len(dic), 20_000))
    seg = dic[idx]
    for policy in POLICIES:
        got = merge_join_index(seg, dic, policy)
        assert np.array_equal(dic[got], seg)


def test_merge_join_missing_key():
    dic = np.array([[2], [4]], dtype=np.uint64)
    empty = np.zeros((0, 1), dtype=np.uint64)
    seg = np.array([[3]], dtype=np.uint64)
    seg_hi = np.array([[9]], dtype=np.uint64)
    for policy in POLICIES:
        with pytest.raises(MissingKeyError):
            merge_join_index(seg, dic, policy)
        with pytest.raises(MissingKeyError):
            merge_join_index(seg_hi, dic, policy)
        for check in (True, False):
            with pytest.raises(MissingKeyError):
                merge_join_index(seg, empty, policy, check=check)


@pytest.mark.parametrize("policy", [ExecPolicy(4), ExecPolicy(8, lane_order_seed=1)])
def test_lane_split_join_runs_one_lower_bound_per_lane(monkeypatch, policy):
    rng = np.random.default_rng(40)
    dic = np.unique(rng.integers(0, 1 << 30, 100)).astype(np.uint64).reshape(-1, 1)
    seg = dic[np.sort(rng.integers(0, len(dic), 40))]
    want = merge_join_index(seg, dic, ExecPolicy(1))
    calls = []

    def spy(sorted_keys, queries, real=bulk.lower_bound):
        calls.append(queries.copy())
        return real(sorted_keys, queries)

    monkeypatch.setattr(bulk, "lower_bound", spy)
    got = merge_join_index(seg, dic, policy)
    # 40 keys over 4 or 8 lanes: every lane holds 10 or 5 contiguous keys
    step = 40 // policy.lanes
    lanes = list(bulk._lane_order(policy, policy.lanes))
    assert [q.tobytes() for q in calls] == [seg[c * step : (c + 1) * step].tobytes() for c in lanes]
    assert got.tobytes() == want.tobytes()


def test_all_primitives_schedule_independent():
    rng = np.random.default_rng(500)
    keys = rand_keys(rng, 20_000, 2, hi=200)
    lens = rng.integers(0, 9, 1000)
    mask = rng.random(20_000) < 0.3
    uniq0, _ = unique_sorted(radix_sort(keys)[0])
    seg = uniq0[np.sort(rng.integers(0, len(uniq0), 300))]
    base = None
    for policy in POLICIES:
        srt, perm = radix_sort(keys, policy)
        uniq, first = unique_sorted(srt, policy)
        blob = (
            exclusive_scan(lens, policy).tobytes()
            + srt.tobytes()
            + perm.tobytes()
            + uniq.tobytes()
            + first.tobytes()
            + merge_join_index(seg, uniq, policy).tobytes()
            + stream_compact(keys, mask, policy).tobytes()
        )
        if base is None:
            base = blob
        else:
            assert blob == base


def test_exclusive_scan_rejects_total_overflow():
    half = 1 << 62
    assert exclusive_scan([half, half - 1])[-1] == (1 << 63) - 1
    assert exclusive_scan([(1 << 63) - 1, 0])[-1] == (1 << 63) - 1
    for lens in ([half, half], [(1 << 63) - 1, 1], [half // 2] * 4, [1 << 61] * 5):
        for policy in POLICIES:
            with pytest.raises(PreconditionError, match="overflows"):
                exclusive_scan(lens, policy)


def masked_keys(rng, n, free_bytes, base=None):
    """Keys equal to ``base`` except in the free (word, byte) digits."""
    words = len(free_bytes)
    mask = np.array(
        [sum(0xFF << (8 * b) for b in free) for free in free_bytes], dtype=np.uint64
    )
    base = rng.integers(0, 1 << 64, words, dtype=np.uint64) if base is None else base
    noise = rng.integers(0, 1 << 64, (n, words), dtype=np.uint64)
    return (base & ~mask) | (noise & mask)


def check_sort_and_search(keys):
    """radix_sort against np.lexsort and lower_bound against bisect."""
    want_perm = np.lexsort(keys.T[::-1]) if len(keys) else np.zeros(0, dtype=np.int64)
    for policy in POLICIES:
        srt, perm = radix_sort(keys, policy)
        assert np.array_equal(perm, want_perm)
        assert np.array_equal(srt, keys[want_perm])
    table = sorted({tuple(k) for k in keys.tolist()})
    dic = np.array(table, dtype=np.uint64).reshape(len(table), keys.shape[1])
    rng = np.random.default_rng(len(keys))
    queries = np.vstack([keys, keys ^ np.uint64(1), rng.integers(0, 1 << 64, keys.shape, dtype=np.uint64)])
    want_pos = [bisect.bisect_left(table, tuple(q)) for q in queries.tolist()]
    assert lower_bound(dic, queries).tolist() == want_pos
    if len(dic):
        srt = keys[want_perm]
        assert merge_join_index(srt, dic).tolist() == [bisect.bisect_left(table, tuple(k)) for k in srt.tolist()]


@pytest.mark.parametrize(
    "free_bytes, passes",
    [
        ([range(8)], 8),  # every byte varies
        ([range(4)], 4),  # constant high bytes
        ([range(4, 8)], 4),  # constant low bytes
        ([[0, 7]], 2),  # constant middle bytes
        ([[], range(8)], 8),  # constant high word
        ([range(8), []], 8),  # constant low word
        ([[6, 7], [], [0, 1]], 4),  # middle word and the inner bytes constant
        ([[], [], []], 0),  # all keys equal
    ],
)
def test_radix_sort_skips_constant_digits(free_bytes, passes):
    rng = np.random.default_rng(passes + 10 * len(free_bytes))
    for base in (None, np.zeros(len(free_bytes), dtype=np.uint64)):  # zero: trailing zero bytes
        keys = masked_keys(rng, 300, free_bytes, base)
        digits = radix_digits(keys)
        assert len(digits) == passes
        words = len(free_bytes)
        assert digits == [(w, b) for w in range(words - 1, -1, -1) for b in range(8) if b in free_bytes[w]]
        check_sort_and_search(keys)


def test_radix_digits_of_trivial_inputs():
    assert radix_digits(np.zeros((0, 2), dtype=np.uint64)) == []
    assert radix_digits(np.array([[5, 6]], dtype=np.uint64)) == []
    assert radix_digits(np.array([[1 << 63], [0]], dtype=np.uint64)) == [(0, 7)]


def assert_one_lane_matches_lane_split(keys, rng, policy):
    """The one-lane route (one numpy call each) equals the shuffled lane-split route."""
    one = ExecPolicy(1)
    srt, perm = radix_sort(keys, one)
    srt_l, perm_l = radix_sort(keys, policy)
    assert srt.tobytes() == srt_l.tobytes() and perm.dtype == perm_l.dtype
    assert perm.tobytes() == perm_l.tobytes()
    uniq, first = unique_sorted(srt, one)
    uniq_l, first_l = unique_sorted(srt, policy)
    assert uniq.tobytes() == uniq_l.tobytes() and uniq.shape == uniq_l.shape
    assert first.tobytes() == first_l.tobytes()
    lens = rng.integers(0, 1 << 20, len(keys))
    assert exclusive_scan(lens, one).tobytes() == exclusive_scan(lens, policy).tobytes()
    mask = rng.random(len(keys)) < 0.5
    got, got_l = stream_compact(keys, mask, one), stream_compact(keys, mask, policy)
    assert got.tobytes() == got_l.tobytes() and got.shape == got_l.shape
    assert merge_join_index(srt, uniq, one).tobytes() == merge_join_index(srt, uniq, policy).tobytes()


def test_radix_sort_and_lower_bound_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        words=st.integers(1, 3),
        n=st.integers(0, 120),
        free=st.lists(st.lists(st.integers(0, 7), max_size=8), min_size=3, max_size=3),
        zero_base=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(2, 9),
        lane_seed=st.integers(0, 2**32 - 1),
    )
    def check(words, n, free, zero_base, seed, lanes, lane_seed):
        rng = np.random.default_rng(seed)
        free_bytes = [set(f) for f in free[:words]]
        base = np.zeros(words, dtype=np.uint64) if zero_base else None
        keys = masked_keys(rng, n, free_bytes, base)
        if n > 1:  # a few exact repeats, so stability is exercised
            keys[rng.integers(0, n, n // 4)] = keys[0]
        check_sort_and_search(keys)
        assert_one_lane_matches_lane_split(keys, rng, ExecPolicy(lanes, lane_order_seed=lane_seed))

    check()


# the lane-split route at every lane count 2-9, in index and in shuffled lane order
LANE_SPLIT = [ExecPolicy(lanes, lane_order_seed=seed) for lanes in range(2, 10) for seed in (None, 3 * lanes)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 9, 17])
def test_lane_split_route_with_empty_and_short_lanes(n):
    # n < lanes leaves lanes with nothing; ceil(n / lanes) per lane can leave the last lanes empty
    rng = np.random.default_rng(n)
    keys = rand_keys(rng, n, 2, hi=4)
    for policy in LANE_SPLIT:
        assert_one_lane_matches_lane_split(keys, rng, policy)


def test_lane_split_route_on_all_equal_keys():
    keys = np.tile(np.array([[7, 1 << 40]], dtype=np.uint64), (61, 1))
    assert radix_digits(keys) == []
    rng = np.random.default_rng(61)
    for policy in LANE_SPLIT:
        srt, perm = radix_sort(keys, policy)
        assert np.array_equal(perm, np.arange(61)) and np.array_equal(srt, keys)
        assert_one_lane_matches_lane_split(keys, rng, policy)


def test_lane_split_pass_over_every_byte_value():
    # one pass whose digits span 0-255, each value several times, so every
    # lane's histogram table is as wide as a byte
    rng = np.random.default_rng(256)
    low = rng.permutation(np.arange(700) % 256).astype(np.uint64)
    keys = np.stack([np.full(700, 5, dtype=np.uint64), low | np.uint64(0xAB00)], axis=1)
    assert radix_digits(keys) == [(1, 0)]
    want = np.lexsort(keys.T[::-1])
    for policy in LANE_SPLIT:
        srt, perm = radix_sort(keys, policy)
        assert np.array_equal(perm, want)
        assert_one_lane_matches_lane_split(keys, rng, policy)


def test_lane_split_route_matches_one_lane_at_every_lane_count():
    rng = np.random.default_rng(29)
    for n in (40, 333):
        for words in (1, 2, 3):
            keys = rand_keys(rng, n, words, hi=1 << 20)
            keys[rng.integers(0, n, n // 3)] = keys[rng.integers(0, n, n // 3)]  # repeats
            for policy in LANE_SPLIT:
                assert_one_lane_matches_lane_split(keys, rng, policy)
                # a column-major key matrix sorts the same
                assert np.array_equal(radix_sort(np.asfortranarray(keys), policy)[1], radix_sort(keys)[1])


def test_lane_split_sort_never_runs_the_whole_array_lexsort(monkeypatch):
    keys = rand_keys(np.random.default_rng(4), 100, 2)
    want = radix_sort(keys)[1]
    monkeypatch.setattr(np, "lexsort", lambda *a: pytest.fail("lexsort on the lane-split route"))
    for policy in LANE_SPLIT:
        assert np.array_equal(radix_sort(keys, policy)[1], want)


@pytest.mark.parametrize("lens", [[], [0], [5], [0, 0, 0], [2, 0, 5], [0] * 7 + [3], list(range(10))])
def test_lane_split_scan_and_compact_with_empty_lanes(lens):
    want = np.concatenate([[0], np.cumsum(np.array(lens, dtype=np.int64))]).astype(np.int64)
    items = np.arange(len(lens), dtype=np.int64)
    keep = np.array(lens, dtype=bool)
    # the join of the kept items' keys: at most 10 keys over 2-9 lanes, so
    # many lanes hold no key or only one
    dic = (3 * items + 1).astype(np.uint64).reshape(-1, 1)
    for policy in LANE_SPLIT:
        got = exclusive_scan(lens, policy)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        assert stream_compact(items, keep, policy).tolist() == items[keep].tolist()
        joined = merge_join_index(dic[keep], dic, policy)
        assert joined.dtype == np.int64 and joined.tolist() == items[keep].tolist()
