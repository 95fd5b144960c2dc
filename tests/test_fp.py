"""Arithmetic backends: modulus constants, toy hand computations, vector kernel agreement."""

import numpy as np
import pytest

from fpgb import fp
from fpgb.errors import NonInvertibleError, PreconditionError
from fpgb.fp import (
    Backend,
    FieldModulus,
    add_vec,
    barrett_reduce_vec,
    float_exact,
    inv_vec,
    is_prime,
    matmul_mod,
    mont_enter_vec,
    mont_leave_vec,
    mont_mul_vec,
    mul_vec,
    naive_mul_vec,
)

M7 = FieldModulus(7)
M251 = FieldModulus(251)
BIG_P = 2147483629  # largest prime below 2^31
MBIG = FieldModulus(BIG_P)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def test_modulus_rejects_non_primes():
    for bad in (1, 2, 4, 9, 15, 2**31 + 11, 2147483647 * 2 + 1):
        with pytest.raises(PreconditionError):
            FieldModulus(bad)


@pytest.fixture
def primality_tests():
    """Counts of is_prime calls from an empty memo: misses are Miller-Rabin runs."""
    is_prime.cache_clear()
    yield is_prime.cache_info
    is_prime.cache_clear()


def test_modulus_proves_a_prime_once(primality_tests):
    for backend in list(Backend) * 100:
        assert FieldModulus(BIG_P, backend).p == BIG_P
    FieldModulus(65537)
    info = primality_tests()
    assert (info.misses, info.hits, info.maxsize) == (2, 299, 64)


def test_composite_modulus_raises_on_every_construction(primality_tests):
    for _ in range(5):
        with pytest.raises(PreconditionError, match="odd prime"):
            FieldModulus(65537 * 3)
    info = primality_tests()
    assert (info.misses, info.hits) == (1, 4)


def test_modulus_constants():
    assert M7.barrett_mu == (1 << 62) // 7
    assert (M7.p * M7.mont_pprime) % (1 << 32) == (1 << 32) - 1
    assert M7.mont_r2 == (1 << 64) % 7
    for m in (M7, M251, MBIG):
        assert m.lazy_window_k * (m.p - 1) ** 2 < 1 << 64
        assert m.lazy_window_k >= 4


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(65537) and is_prime(BIG_P)
    assert not is_prime(65537 * 3) and not is_prime(2**31 - 1 + 2)


def test_montgomery_toy_hand_computation():
    # toy parameters R=16, p=7: p' = 9 because 7*9 = 63 = -1 mod 16
    R, p, pprime = 16, 7, 9
    assert (p * pprime) % R == R - 1
    a_t = (3 * R) % p  # = 6
    assert a_t == 6
    t = a_t * a_t  # 36
    m = (t * pprime) % R  # 4
    u = (t + m * p) // R  # 4
    assert (t + m * p) % R == 0
    assert u == 4 == (3 * 3 * R) % p


def test_mont_mul_production_against_naive():
    rng = np.random.default_rng(1234)
    for m in (M7, M251, MBIG):
        a = rng.integers(0, m.p, 10_000, dtype=np.uint64)
        b = rng.integers(0, m.p, 10_000, dtype=np.uint64)
        got = mont_leave_vec(mont_mul_vec(mont_enter_vec(a, m), mont_enter_vec(b, m), m), m)
        assert np.array_equal(got, a * b % np.uint64(m.p))


def test_barrett_examples_and_oracle():
    # the k=16 toy: q = (100*9362) >> 16 = 14, r = 100 - 14*7 = 2
    assert (100 * (65536 // 7)) >> 16 == 14
    edges = np.array([0, 7, 100], dtype=np.uint64)
    assert barrett_reduce_vec(edges, M7).tolist() == [0, 0, 2]
    rng = np.random.default_rng(99)
    for m in (M7, M251, MBIG):
        xs = rng.integers(0, 1 << 62, 20_000, dtype=np.uint64)
        assert np.array_equal(barrett_reduce_vec(xs, m), xs % np.uint64(m.p))


def test_barrett_correction_bound():
    # q = (x*mu) >> 62 undershoots floor(x/p) by at most 2 for x < 2^62,
    # so the raw remainder always lands in [0, 3p)
    rng = np.random.default_rng(404)
    for p in SMALL_PRIMES + [65537, BIG_P]:
        m = FieldModulus(p)
        xs = rng.integers(0, 1 << 62, 50_000, dtype=np.uint64).tolist()
        xs += [0, p, p - 1, (1 << 62) - 1, ((1 << 62) - 1) // p * p]
        for x in xs[:2000] + xs[-5:]:
            q = (x * m.barrett_mu) >> 62
            r = x - q * p
            assert 0 <= r < 3 * p
        arr = np.array(xs, dtype=np.uint64)
        assert np.array_equal(barrett_reduce_vec(arr, m), arr % np.uint64(p))


def test_backend_agreement_sampled():
    rng = np.random.default_rng(4242)
    for p in SMALL_PRIMES + [65537, BIG_P]:
        m = FieldModulus(p)
        a = rng.integers(0, p, 5000, dtype=np.uint64)
        b = rng.integers(0, p, 5000, dtype=np.uint64)
        want = a * b % np.uint64(p)
        assert np.array_equal(naive_mul_vec(a, b, m), want)
        assert np.array_equal(barrett_reduce_vec(a * b, m), want)
        got_m = mont_leave_vec(mont_mul_vec(mont_enter_vec(a, m), mont_enter_vec(b, m), m), m)
        assert np.array_equal(got_m, want)
        for backend in Backend:
            mb = FieldModulus(p, backend)
            assert np.array_equal(mul_vec(a, b, mb), want)
        s = a + b
        assert np.array_equal(add_vec(a, b, m), s % np.uint64(p))


def test_inv_vec_inverts_every_unit():
    assert inv_vec(np.array([3], dtype=np.uint64), M7).tolist() == [5]
    invs = inv_vec(np.arange(1, 251, dtype=np.uint64), FieldModulus(251)).tolist()
    assert all(a * inv % 251 == 1 for a, inv in zip(range(1, 251), invs))
    assert sorted(invs) == list(range(1, 251))


def test_batch_inversion_matches_one_pow_per_value():
    rng = np.random.default_rng(6)
    for p in (3, 251, 65537, BIG_P):
        m = FieldModulus(p)
        x = rng.integers(1, p, 300, dtype=np.uint64)
        got = inv_vec(x, m)
        assert got.dtype == np.uint64
        assert got.tolist() == [pow(v, p - 2, p) for v in x.tolist()]
        assert inv_vec(x[:1], m).tolist() == [pow(int(x[0]), p - 2, p)]
        assert inv_vec(x[:0], m).tolist() == []
        with pytest.raises(NonInvertibleError):
            inv_vec(np.concatenate([x[:5], np.zeros(1, dtype=np.uint64), x[5:9]]), m)


def test_field_modulus_rejects_an_unknown_backend():
    # the loaders take a backend name, so a bad one is bad input (exit 2)
    with pytest.raises(PreconditionError, match="unknown backend 'bogus'"):
        FieldModulus(7, "bogus")
    for backend in ("naive", "barrett", "montgomery"):
        assert FieldModulus(7, backend).backend is Backend(backend)


@pytest.mark.parametrize("m", [M7, FieldModulus(65537), MBIG, FieldModulus(6710887)])
@pytest.mark.parametrize("K", [1, 3, 4, 40_000, 200, 201])
def test_matmul_mod_matches_integer_products(monkeypatch, m, K):
    # at the 31-bit prime K = 4 needs the 16-bit split, and 40,000 terms
    # need more than one 2^15-term slice; at 6710887 K = 200 is the last
    # float64 product and 201 takes the uint64 one.  Values p - 1 give the
    # largest sums.  X is stacked as the sigma-basis stacks its coefficients.
    # The operands also come as float64, as block Wiedemann's dense operator
    # passes them: its column-major copy of B times a uint64 block, and B^T B
    rng = np.random.default_rng(K)
    X = rng.integers(0, m.p, (2, 3, K), dtype=np.uint64)
    Y = rng.integers(0, m.p, (K, 2), dtype=np.uint64)
    X[0, 0], Y[:, 0] = m.p - 1, m.p - 1
    want = np.array(X.astype(object) @ Y.astype(object) % m.p, dtype=np.uint64)
    real = fp.mod_exact
    floats = []
    monkeypatch.setattr(fp, "mod_exact", lambda x, p: floats.append(1) or real(x, p))
    for x, y in ((X, Y), (np.asfortranarray(X, dtype=np.float64), Y), (X.astype(np.float64), Y.astype(np.float64))):
        floats.clear()
        got = matmul_mod(x, y, m)
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        assert bool(floats) == float_exact(K, m.p)
    if m.p == 6710887:
        assert float_exact(K, m.p) == (K <= 200)
