import hashlib
import math
import os
import random
import re
import threading
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    chebyshev_s,
    delta_mod,
    digits_of,
    eigenform_mod,
    eta_six,
    naive_delta,
    naive_eigenform,
    naive_series_mul,
    naive_sigma,
    naive_sym_coeff_sieve,
    smallest_prime_factors,
    sym_prime_power_gauss,
    write_cache,
)
from symmoment import hecke as H
from symmoment.errors import CapacityError, ConsistencyError


# every prime any supported weight can use up to HARD_CAP
PRIMES = H.crt_primes(max(H.SUPPORTED_WEIGHTS), H.HARD_CAP)


def residues(series, p):
    return [x % p for x in series]


def test_series_mul_randomized_against_schoolbook():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 40)
        a = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(1, n))]
        b = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(1, n))]
        want = naive_series_mul(a, b, n)
        for p in PRIMES:
            got = H.series_mul(residues(a, p), residues(b, p), n, p)
            assert got.tolist() == residues(want, p)


def test_series_mul_squaring_aliasing():
    a = [3, -7, 0, 5, 11]
    want = naive_series_mul(a, a, 9)
    for p in PRIMES:
        r = residues(a, p)
        assert H.series_mul(r, r, 9, p).tolist() == residues(want, p)


def test_series_mul_rounding_guard_raises():
    # inputs up to 2^31 instead of residues mod p bound the exact sums by
    # 2^76, far past the 2^50 that series_mul checks before any transform;
    # the same inputs reduced mod p multiply without complaint
    rng = random.Random(3)
    p = PRIMES[0]
    wide = [rng.randrange(1 << 31) for _ in range(1 << 14)]
    with pytest.raises(ConsistencyError):
        H.series_mul(wide, wide, len(wide), p)
    reduced = residues(wide, p)
    H.series_mul(reduced, reduced, len(reduced), p)
    # all-(q-1)/2 residues at the first weight-12 prime for N = 1e5 pass the
    # bound, ((q-1)/2)^2 1e5 <= 2^50, but their convolution values land
    # half-way between integers, and the rounding guard refuses them
    q = H.crt_primes(12, 10**5)[0]
    assert q == 212209 and ((q - 1) // 2) ** 2 * 10**5 <= 2**50
    half = [(q - 1) // 2] * 10**5
    with pytest.raises(ConsistencyError, match="FFT rounding distance"):
        H.series_mul(half, half, len(half), q)


def test_series_mul_magnitude_bound_raises():
    # all-(p-1)/2 residues at a prime near 2^21 are valid inputs, but the
    # exact sums reach ((p-1)/2)^2 2^14, about 2^54
    p = H.crt_primes(26, 1)[0]
    assert p > H.PRIME_CEIL - 100
    a = [(p - 1) // 2] * (1 << 14)
    with pytest.raises(ConsistencyError, match="exceeds 2\\^50"):
        H.series_mul(a, a, len(a), p)


# the moduli `_rem` meets: 3, a congruence modulus m that is prime (691)
# and two that are composite, the two largest CRT primes, just below
# PRIME_CEIL, and 2^31 - 1, the largest q `_mod` allows
REM_MODULI = (3, 691, 174611, 77683, *H.crt_primes(26, 1024)[:2], 2**31 - 1)


def rem_cases(p, dtype):
    """int64 values x in `_rem`'s domain for dtype, |x| + p < 2^(bits-1):
    zero, both sides of 0, +-p and +-2p, the domain's edges, and random
    values of every magnitude up to 2^50 (`_convolve`), 2^56 (`_mod`) and
    the edge."""
    edge = 2 ** (np.iinfo(dtype).bits - 1) - p - 1
    fixed = [0, 1, -1, p - 1, p, p + 1, -p + 1, -p, -p - 1, 2 * p, -2 * p, edge, -edge]
    rng = np.random.default_rng(p)
    tops = [t for t in (2**20, 2**31, 2**50, 2**56) if t < edge] + [edge]
    drawn = [rng.integers(-t, t, 200, endpoint=True).tolist() for t in tops]
    return np.array(sorted({x for x in fixed + sum(drawn, []) if abs(x) <= edge}), dtype=np.int64)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("p", REM_MODULI)
def test_rem_matches_mod_in_place(p, dtype):
    x = rem_cases(p, dtype).astype(dtype)
    # an int32 x mod 2^31 - 1 has only x = 0 in the domain
    assert 0 in x and (x.min() < 0 or len(x) == 1)
    want = [v % p for v in x.tolist()]
    got = H._rem(x, p)
    assert got is x and got.dtype == dtype
    assert got.tolist() == want


@pytest.mark.parametrize("p", REM_MODULI)
def test_shifted_rem_is_the_balanced_residue(p):
    # Garner's digit row: one reduction of x + p // 2 instead of % and then
    # `_balanced`; p is odd, so both land in [-(p-1)/2, (p-1)/2]
    x = rem_cases(p + p // 2, np.int64)
    want = H._balanced(x % p, p)
    assert want.min() == -(p // 2) and want.max() == p // 2
    assert np.array_equal(H._rem(x + p // 2, p) - p // 2, want)


def test_series_mul_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(5)
    for p in PRIMES[:2] + (691,):
        a = rng.integers(0, p, 64)
        b = rng.integers(0, p, 40)
        a0, b0 = a.copy(), b.copy()
        H.series_mul(a, b, 80, p)
        H.series_mul(a, a, 50, p)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_two_prime_build_leaves_the_shared_eta_series_unchanged(monkeypatch):
    # every prime of Delta's table reduces the one exact eta^24 series; a
    # reduction in place at the first prime would hand the second its
    # residues instead of the integers
    N = 100
    primes = H.crt_primes(12, N)
    assert len(primes) == 2
    shared = []
    real = H._eta_exact

    def recording(n_terms):
        s, left = real(n_terms)
        shared.append((s, s.copy(), left))
        return s, left

    monkeypatch.setattr(H, "_eta_exact", recording)
    digits = H.eigenform_qexp(12, N).digits
    [(s, before, left)] = shared
    assert left == 0 and np.abs(s).max() > primes[0]
    assert np.array_equal(s, before)
    assert np.array_equal(digits, digits_of(12, naive_delta(N)))


def test_crt_primes_exceed_twice_the_deligne_bound():
    # |a(n)| <= d(n) n^((k-1)/2) and d(n) <= 2 sqrt(n), so |a(n)| <= 2 N^(k/2);
    # the ceiling min(PRIME_CEIL, isqrt(2^52 // N)) first drops below
    # PRIME_CEIL at N = 1025, where it is even (2096128)
    assert math.isqrt(2**52 // 1025) % 2 == 0
    for N in (1, 16, 1000, 1024, 1025, 5000, 10401, 10**5, H.HARD_CAP):
        for weight in H.SUPPORTED_WEIGHTS:
            primes = H.crt_primes(weight, N)
            assert len(set(primes)) == len(primes)
            for q in primes:
                assert q < H.PRIME_CEIL
                assert N * ((q - 1) // 2) ** 2 <= 2**50, (N, q)
                assert all(q % d for d in range(2, math.isqrt(q) + 1)), q
            assert math.prod(primes) > 2 * (2 * N ** (weight // 2)), (N, weight)
            assert all(H._WEIGHTS[weight][0] % q for q in primes), (N, weight)


@pytest.mark.parametrize("p", (691, 657931, PRIMES[0]))
def test_sigma_mod_against_divisor_sums(p):
    # n_terms below, at and past p: past it the powers of one period 0..p-1
    # are tiled, which the Eisenstein build reaches once N passes its CRT
    # primes, near N = 165,000
    rng = random.Random(p)
    sizes = (1, 2, p - 1, p, p + 1, 3 * p + 2)
    top = sizes[-1]
    edges = [k * p + e for k in (1, 2, 3) for e in (-1, 0, 1)]
    ns = sorted({*range(100), *edges, top - 1, *rng.sample(range(top), 30)})
    for r in (3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 25):
        (full,) = H._sigma_mod(r, top, (p,))
        assert full.dtype == np.int32
        assert full[ns].tolist() == [naive_sigma(r, n) % p for n in ns], r
        for n_terms in sizes[:-1]:
            (short,) = H._sigma_mod(r, n_terms, (p,))
            assert np.array_equal(short, full[:n_terms]), (r, n_terms)


@pytest.mark.parametrize("chunk", [1 << 16, 3 * 1010])
def test_sigma_mod_block_rows_match_one_modulus(monkeypatch, chunk):
    # one call for many moduli runs the divisor steps once per block of
    # rows; each row must be the one-modulus call's, whatever the other
    # rows hold: a weight's CRT primes, the six congruence moduli and 1009,
    # whose powers are tiled at n_terms 1010. With a 3030-item _CHUNK the
    # 16 moduli take blocks of 3 rows at n_terms 1009 and 1010
    monkeypatch.setattr(H, "_CHUNK", chunk)
    p = 1009
    moduli = H.crt_primes(26, 5000) + tuple(m for m, _ in H._WEIGHTS.values()) + (p,)
    for r in (3, 11, 13):
        for n_terms in (1, 2, p - 1, p, p + 1):
            rows = list(H._sigma_mod(r, n_terms, moduli))
            assert len(rows) == len(moduli), (r, n_terms)
            for q, row in zip(moduli, rows):
                (want,) = H._sigma_mod(r, n_terms, (q,))
                assert row.dtype == np.int32, (r, n_terms, q)
                assert np.array_equal(row, want), (r, n_terms, q)


def test_digits_mod_against_combine():
    # 4 to 17 rows, as many as weight 26 takes at HARD_CAP, of primes just
    # below PRIME_CEIL and of a table's primes: the columns +-(M-1)/2, whose
    # digits are all +-p//2, and random balanced digits. _combine reads the
    # integers x, _garner gives the digits back from x mod p, leaving those
    # residues as they were, and _mod reads x mod q for q up to 2^31
    rng = np.random.default_rng(5)
    near_ceil = H.primes_up_to(H.PRIME_CEIL)[:-18:-1]
    for rows in range(4, 18):
        for primes in (near_ceil[:rows], PRIMES[:rows]):
            h = np.array(primes, dtype=np.int32)[:, None] // 2
            digits = np.hstack([h, -h, rng.integers(-h, h + 1, (rows, 200), dtype=np.int32)])
            want = []
            for column in digits.T.tolist():
                x = 0
                for d, p in zip(reversed(column), reversed(primes)):
                    x = x * p + d
                want.append(x)
            assert want[:2] == [math.prod(primes) // 2, -(math.prod(primes) // 2)]
            assert H._combine(primes, digits) == want, rows
            residues = [np.array([x % p for x in want], dtype=np.int64) for p in primes]
            copies = [r.copy() for r in residues]
            assert np.array_equal(H._garner(primes, residues, len(want)), digits), rows
            assert all(map(np.array_equal, residues, copies)), rows
            for q in (691, 657931, PRIMES[0], 2_147_483_629):
                assert H._mod(primes, digits, q).tolist() == [x % q for x in want], (rows, q)


def test_combine_across_chunks_gives_python_ints(monkeypatch):
    # with 7 columns a chunk, 30 columns take five chunks, the last short;
    # every item must be a Python int, as `tau --format json` cannot write
    # a numpy.int64 and Python-int arithmetic is what makes a(n) exact
    monkeypatch.setattr(H, "_CHUNK", 7)
    rng = np.random.default_rng(7)
    for rows in range(4, 18):
        primes = PRIMES[:rows]
        h = np.array(primes, dtype=np.int32)[:, None] // 2
        digits = np.hstack([h, -h, rng.integers(-h, h + 1, (rows, 28), dtype=np.int32)])
        want = []
        for column in digits.T.tolist():
            x = 0
            for d, p in zip(reversed(column), reversed(primes)):
                x = x * p + d
            want.append(x)
        got = H._combine(primes, digits)
        assert got == want, rows
        assert all(type(x) is int for x in got), rows


def test_overflow_bounds_of_the_digit_and_divisor_sums():
    # each row of a _sigma_mod block is an int32 sum on its own: at n it
    # holds at most d(n) residues below that row's modulus p < PRIME_CEIL,
    # one more at a square, whose d(n) is odd, until its correction, and
    # `_rem` wants it below 2^31 - p; a block of more than one row holds at
    # most _CHUNK items. _mod's int64 sum holds at most 17 products of a
    # balanced digit, below PRIME_CEIL / 2 in absolute value, and a weight
    # below q < 2^31
    N = H.HARD_CAP
    d = np.zeros(N + 1, dtype=np.int32)
    for k in range(1, math.isqrt(N) + 1):
        d[k * k :: k] += 2
        d[k * k] -= 1
    assert d.max() == 240 == d[720720] == naive_sigma(0, 720720)
    for p in (*H.crt_primes(26, N), *(m for m, _ in H._WEIGHTS.values())):
        assert p < H.PRIME_CEIL and 240 * (p - 1) < 2**31 - p, p
    assert 240 * H.PRIME_CEIL < 2**31 - H.PRIME_CEIL
    for n_terms in (1, 2, 5000, H._CHUNK // 2, H._CHUNK // 2 + 1, N + 1):
        rows = max(1, H._CHUNK // n_terms)
        assert rows * n_terms <= H._CHUNK or rows == 1, n_terms
        assert (rows == 1) == (n_terms > H._CHUNK // 2 == 32768), n_terms
    rows = [len(H.crt_primes(k, n)) for k in H.SUPPORTED_WEIGHTS for n in (1, 1025, 10**5, N)]
    assert max(rows) == len(H.crt_primes(26, N)) == 17
    assert 17 * (H.PRIME_CEIL // 2) * 2**31 < 2**56


def test_delta_matches_product_oracle():
    assert list(H.eigenform_qexp(12, 200).raw) == naive_delta(200)


def test_tau_spot_values():
    tab = H.eigenform_qexp(12, 10)
    assert tab.raw[1] == 1
    assert tab.raw[2] == -24
    assert tab.raw[3] == 252
    assert tab.raw[6] == -6048
    assert tab.raw[6] == tab.raw[2] * tab.raw[3]


def test_hecke_recursion_all_prime_powers(delta_1e4):
    tab = delta_1e4
    for p in H.primes_up_to(100):
        c = 1
        while p ** (c + 1) <= tab.limit:
            assert (
                tab.raw[p ** (c + 1)]
                == tab.raw[p] * tab.raw[p**c] - p**11 * tab.raw[p ** (c - 1)]
            )
            c += 1


def test_multiplicativity_random_coprime_pairs(delta_1e4):
    tab = delta_1e4
    rng = random.Random(23)
    found = 0
    while found < 500:
        m = rng.randint(2, 120)
        n = rng.randint(2, tab.limit // m)
        if math.gcd(m, n) != 1:
            continue
        assert tab.raw[m * n] == tab.raw[m] * tab.raw[n]
        found += 1


@pytest.mark.parametrize("weight", [12, 16])
def test_deligne_bound(weight, delta_1e4):
    tab = delta_1e4 if weight == 12 else H.eigenform_qexp(16, 10_000)
    for p in H.primes_up_to(tab.limit):
        assert abs(tab.lam(p)) <= 2.0


def test_eigenform_known_a2_values():
    want = {16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
    for weight, a2 in want.items():
        tab = H.eigenform_qexp(weight, 16)
        assert tab.raw[1] == 1
        assert tab.raw[2] == a2


@pytest.mark.parametrize("weight", H.SUPPORTED_WEIGHTS)
def test_eigenform_matches_naive_products(weight):
    tab = H.eigenform_qexp(weight, 50)
    assert list(tab.raw) == naive_eigenform(weight, 50)


@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 65, 600])
def test_eigenform_matches_naive_across_fft_sizes(N):
    for weight in H.SUPPORTED_WEIGHTS:
        got = H.eigenform_qexp(weight, N).raw
        assert list(got) == naive_eigenform(weight, N), weight


@pytest.mark.parametrize("weight", [12, 26])
def test_eigenform_matches_naive_below_the_full_prime_ceiling(weight):
    # from N = 1025 on, crt_primes takes its primes below 2^21
    N = 1100
    assert H.crt_primes(weight, N)[0] < H.crt_primes(weight, 1024)[-1]
    assert list(H.eigenform_qexp(weight, N).raw) == naive_eigenform(weight, N)


def test_fft_size_is_the_least_5_smooth_size():
    def smooth(m):
        for q in (2, 3, 5):
            while m % q == 0:
                m //= q
        return m == 1

    for n in range(1, 3000):
        assert H._fft_size(n) == next(m for m in range(n, 2 * n + 1) if smooth(m)), n


def test_exact_squarings_stop_at_the_convolve_bound():
    # eta^24 fits _convolve's 2^50 up to N = 172, eta^12 up to N = 15,253
    left = [H._eta_exact(N)[1] for N in (1, 172, 173, 15253, 15254, 10**5)]
    assert left == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("N", [1, 172, 173, 1100, 10402, 15252, 15253, 15254])
def test_eigenform_digits_match_the_per_prime_path(N):
    # on both sides of the last N for exact eta^24 and for exact eta^12,
    # at 1100, below the full prime ceiling, and at 10402, where Delta's
    # primes hold 657931, which weight 26 leaves out
    eta6 = eta_six(N)
    for weight in H.SUPPORTED_WEIGHTS:
        primes = H.crt_primes(weight, N)
        want = H._garner(primes, (eigenform_mod(weight, eta6, p) for p in primes), N + 1)
        assert np.array_equal(H.eigenform_qexp(weight, N).digits, want), weight


def test_on_delta_with_sigma_rows_in_three_blocks(monkeypatch):
    # _on_delta takes every sigma row of its primes from one _sigma_mod
    # call; with _CHUNK cut to rows * N the primes of each weight above 12
    # (5 to 8 at N = 3000) fall in three blocks, and prime i must still be
    # handed row i
    N = 3000
    eta6 = eta_six(N)
    delta = H.eigenform_qexp(12, N)
    for weight in H.SUPPORTED_WEIGHTS[1:]:
        primes = H.crt_primes(weight, N)
        rows = -(-len(primes) // 3)
        assert -(-len(primes) // rows) == 3, weight
        monkeypatch.setattr(H, "_CHUNK", rows * N)
        want = H._garner(primes, (eigenform_mod(weight, eta6, p) for p in primes), N + 1)
        assert np.array_equal(H._on_delta(weight, delta).digits, want), weight


def counting_series_mul(monkeypatch):
    """Wrap `H.series_mul` so that each call appends its n_out to the
    returned list."""
    calls = []
    real = H.series_mul

    def counting(a, b, n_out, p):
        calls.append(n_out)
        return real(a, b, n_out, p)

    monkeypatch.setattr(H, "series_mul", counting)
    return calls


def test_series_mul_count_and_the_lifted_delta(monkeypatch):
    # at N = 5000 Delta needs d = 4 primes, each with one squaring mod p
    # after the exact eta^12; every weight above 12 adds one product a prime
    N, d = 5000, 4
    calls = counting_series_mul(monkeypatch)
    for weight in H.SUPPORTED_WEIGHTS:
        calls.clear()
        H.eigenform_qexp(weight, N)
        extra = 0 if weight == 12 else len(H.crt_primes(weight, N))
        assert calls == [N] * (d + extra), weight
    delta_primes = H.crt_primes(12, N)
    delta = H.eigenform_qexp(12, N).digits
    assert delta.shape == (d, N + 1)
    eta6 = eta_six(N)
    for p in H.crt_primes(26, N):
        assert np.array_equal(H._mod(delta_primes, delta, p), delta_mod(eta6, p)), p


@pytest.mark.parametrize("N, squarings", [(5000, 4), (10402, 5)])
def test_a_cache_builds_delta_once_for_every_weight(tmp_path, monkeypatch, N, squarings):
    # a weight above 12 takes Delta from the cache, so in any order of the
    # weights Delta's squarings, one a prime after the exact eta^12, run
    # once and each higher weight adds one product a prime; at 10402
    # Delta's primes hold 657931, which weight 26 leaves out. A higher
    # weight comes first, and weight 12 in the middle is a load
    order = random.Random(N).sample(H.SUPPORTED_WEIGHTS, len(H.SUPPORTED_WEIGHTS))
    assert order[0] != 12 != order[-1]
    delta_primes = H.crt_primes(12, N)
    if N == 10402:
        assert 657931 in delta_primes and 657931 not in H.crt_primes(26, N)
    calls = []
    real = H.series_mul

    def counting(a, b, n_out, p):
        calls.append("square" if b is a else "product")
        return real(a, b, n_out, p)

    monkeypatch.setattr(H, "series_mul", counting)
    cache = str(tmp_path)
    forms = {weight: H.cached_eigenform(weight, N, cache) for weight in order}
    assert calls.count("square") == squarings == len(delta_primes)
    products = sum(len(H.crt_primes(weight, N)) for weight in H.SUPPORTED_WEIGHTS[1:])
    assert calls.count("product") == products
    names = sorted(os.listdir(cache))
    assert names == sorted(f"tau_{weight}_{N}.b32" for weight in H.SUPPORTED_WEIGHTS)
    for weight, form in forms.items():
        assert np.array_equal(form.digits, H.eigenform_qexp(weight, N).digits), weight


def test_a_weight_above_12_certifies_its_delta_before_using_it(monkeypatch):
    # one wrong coefficient of the shared eta series makes a(8) of Delta
    # wrong by 2, which the weight-12 certificate sees before any product
    # with E_14, after Delta's 4 squarings at N = 5000
    real = H._eta_exact

    def faulty(n_terms):
        s, left = real(n_terms)
        s = s.copy()
        s[7] += 1
        return s, left

    monkeypatch.setattr(H, "_eta_exact", faulty)
    calls = counting_series_mul(monkeypatch)
    with pytest.raises(ConsistencyError, match=r"a\(8\) != sigma_11\(8\) mod 691 at weight 12"):
        H.eigenform_qexp(26, 5000)
    assert len(calls) == 4


@pytest.mark.parametrize("weight", H.SUPPORTED_WEIGHTS)
def test_multiplicativity_and_hecke_recursion_at_every_n(weight):
    # n = p^a m with p the least prime factor of n and p coprime to m:
    # a(n) = a(p^a) a(m) when m > 1, else the prime-power recursion
    N = 5000
    raw = H.eigenform_qexp(weight, N).raw
    spf = smallest_prime_factors(N)
    for n in range(2, N + 1):
        p = spf[n]
        q, m = p, n // p
        while m % p == 0:
            q, m = q * p, m // p
        if m > 1:
            assert raw[n] == raw[q] * raw[m], n
        elif q > p:
            assert raw[n] == raw[p] * raw[n // p] - p ** (weight - 1) * raw[n // p // p], n


def test_eigenform_congruence_check_passes(delta_1e6):
    # every built table has passed the constructor's certificate; so does a
    # table made by hand from the digits of a built one
    for weight in H.SUPPORTED_WEIGHTS:
        H.eigenform_qexp(weight, 600)
    H.EigenformTable(delta_1e6.weight, delta_1e6.limit, delta_1e6.digits)


@pytest.mark.parametrize(
    "kind", ["built", "loaded", "hand-made", "hand-made view", "view made before", "on a bytearray"]
)
def test_certified_digits_are_read_only(tmp_path, kind):
    # a write after the certificate would move raw, lam and the sieve's
    # inputs without raising. Built and loaded tables own their digits and
    # freeze them; a hand-made table certifies and freezes a copy, so the
    # caller's array stays writable and writing it, or any view of it,
    # leaves the table as it was. Tables on mine[:] and on mine once moved
    # by 691 at a(997) when mine, or a view of it made before the
    # constructor ran, was written; digits on a bytearray were refused
    built = H.eigenform_qexp(12, 1000)
    if kind == "built":
        tab = built
    elif kind == "loaded":
        H.save_table(built, str(tmp_path))
        tab = H.load_table(12, 1000, str(tmp_path))
    else:
        mine = built.digits.copy()
        if kind == "on a bytearray":
            mine = np.frombuffer(bytearray(mine.tobytes()), dtype=np.int32).reshape(mine.shape)
        before = mine[:]
        tab = H.EigenformTable(12, 1000, mine[:] if kind == "hand-made view" else mine)
        for array in (mine, before if kind == "view made before" else mine):
            array[0, 997] += 691
        assert mine[0, 997] == built.digits[0, 997] + 2 * 691
    assert tab.digits.base is None
    with pytest.raises(ValueError, match="read-only"):
        tab.digits[..., 997] += 691
    assert np.array_equal(tab.digits, built.digits)
    assert tab.raw == built.raw


@pytest.mark.parametrize("weight", H.SUPPORTED_WEIGHTS)
def test_check_catches_one_changed_coefficient(weight):
    # a(p) for a prime p > N/2 has no other multiple below N, so only an
    # O(N) check sees it; a(1) is checked exactly
    raw = list(H.eigenform_qexp(weight, 600).raw)
    for n, message in ((599, r"a\(599\) != sigma_"), (1, "not normalized")):
        bumped = raw[:n] + [raw[n] + 1] + raw[n + 1 :]
        with pytest.raises(ConsistencyError, match=message):
            H.EigenformTable(weight, 600, digits_of(weight, bumped))


def test_check_reads_a_1_off_its_digits():
    # column 1 must be (1, 0, ..., 0), the balanced digits of 1; a change in
    # any digit above the first is seen before the congruence runs
    primes = H.crt_primes(26, 100)
    raw = list(H.eigenform_qexp(26, 100).raw)
    for a1 in (2, 1 + primes[0], 1 - primes[0] * primes[1], 1 + math.prod(primes[:-1])):
        with pytest.raises(ConsistencyError, match=r"not normalized: a\(1\) != 1"):
            H.EigenformTable(26, 100, digits_of(26, [0, a1] + raw[2:]))


def test_check_sees_the_top_digit_row():
    # at N = 10401 the weight-26 primes pass m = 657931, which is prime; a
    # CRT prime equal to m would make every digit above it vanish mod m
    primes = H.crt_primes(26, 10401)
    assert primes[-1] < 657931 < primes[0]
    digits = H.eigenform_qexp(26, 10401).digits.copy()
    n = 10399
    assert digits[-1, n] + 1 <= primes[-1] // 2
    digits[-1, n] += 1
    with pytest.raises(ConsistencyError, match=r"a\(10399\) != sigma_25"):
        H.EigenformTable(26, 10401, digits)


def test_check_sees_a_digit_outside_its_prime():
    # a digit equal to its prime still combines to an integer, which the
    # congruence would flag as a wrong a(7); the range check runs first and
    # names the digit, for a hand-made table as for a loaded one
    primes = H.crt_primes(12, 100)
    digits = H.eigenform_qexp(12, 100).digits.copy()
    digits[1, 7] = primes[1]
    h = primes[1] // 2
    want = rf"digit 1 of a\(7\) outside \[-{h}, {h}\]"
    with pytest.raises(ConsistencyError, match=want):
        H.EigenformTable(12, 100, digits)


@pytest.mark.parametrize(
    "reshape",
    [
        lambda d: d[:, :500],
        lambda d: np.pad(d, ((0, 0), (0, 10))),
        lambda d: d[0],
        lambda d: np.vstack([d, d[:1]]),
    ],
    ids=["short", "long", "flat", "extra-row"],
)
def test_check_sees_a_digit_matrix_of_the_wrong_shape(reshape):
    # the shape is certified first, so neither a numpy broadcast or index
    # error nor a misleading congruence failure answers a hand-made table
    digits = reshape(H.eigenform_qexp(12, 1000).digits)
    want = rf"digits have shape \({', '.join(map(str, digits.shape))},?\), expected"
    with pytest.raises(ConsistencyError, match=want):
        H.EigenformTable(12, 1000, digits)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint32, np.int16, object])
def test_check_sees_digits_of_the_wrong_dtype(dtype):
    # the dtype is certified with the shape, so neither a numpy casting error
    # nor a range message about wrapped int16 digits answers a hand-made table
    digits = H.eigenform_qexp(12, 100).digits.astype(dtype)
    want = rf"digits have dtype {np.dtype(dtype)}, expected int32"
    with pytest.raises(ConsistencyError, match=want):
        H.EigenformTable(12, 100, digits)


def test_digits_combine_to_the_table():
    tab = H.eigenform_qexp(26, 300)
    primes = H.crt_primes(26, 300)
    assert tab.digits.shape == (len(primes), 301) and tab.digits.dtype == np.int32
    assert (tab.digits == digits_of(26, tab.raw)).all()
    assert tab.raw[0] == 0


def test_normalization():
    tab = H.eigenform_qexp(16, 100)
    for n in (1, 2, 10, 97, 100):
        assert tab.lam(n) == tab.raw[n] / n**7.5
    for n in (0, -1, 101):
        with pytest.raises(IndexError):
            tab.lam(n)


def test_lam_at_the_prime_array_is_bit_identical(delta_1e4):
    # the sieve passes _lam its int32 prime array and the memoized norms;
    # the partial-sum golden records rest on these floats being raw[p] / p**e
    # in Python arithmetic, bit for bit, where |a(p)| reaches 74 bits at
    # weight 12 and 167 at weight 26, past int64
    N = delta_1e4.limit
    primes = H.largest_prime_powers(N)[1]
    assert primes.dtype == np.int32 and len(primes) == 1229
    for form, e, bits in ((delta_1e4, 5.5, 74), (H.eigenform_qexp(26, N), 12.5, 167)):
        got = H._lam(form, primes, H._prime_norms(form.weight, N))
        assert got.dtype == np.float64
        want = np.array([form.raw[p] / p**e for p in primes.tolist()])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert max(abs(form.raw[p]) for p in primes.tolist()).bit_length() == bits
        # lam at a numpy int32 n, as the prime array yields, is the same float
        assert all(type(form.lam(p)) is float and form.lam(p) == t for p, t in zip(primes, want))


def test_domain_and_capacity_errors(tmp_path, monkeypatch):
    # the weight's own gate runs before Delta or any product is formed
    calls = counting_series_mul(monkeypatch)
    with pytest.raises(ValueError):
        H.eigenform_qexp(14, 100)
    with pytest.raises(ValueError):
        H.eigenform_qexp(26, 0)
    assert calls == []
    with pytest.raises(ValueError):
        H.eigenform_qexp(12, 0)
    with pytest.raises(CapacityError):
        H.eigenform_qexp(12, H.HARD_CAP + 1)
    with pytest.raises(ValueError):
        H.load_table(14, 100, tmp_path)


@pytest.mark.parametrize(
    "weight,N,error,message",
    [
        (13, 10, ValueError, "weight 13 not supported; choose from (12, 16, 18, 20, 22, 26)"),
        (12, 0, ValueError, "N must be positive, got 0"),
        (12, -3, ValueError, "N must be positive, got -3"),
        (12, H.HARD_CAP + 1, CapacityError, "N=1000001 exceeds limit 1000000"),
    ],
    ids=["weight-13", "N-0", "N-minus-3", "past-cap"],
)
def test_hand_made_table_passes_the_gate(weight, N, error, message):
    # crt_primes, the constructor's first call, runs check_table
    with pytest.raises(error, match=re.escape(message)):
        H.EigenformTable(weight, N, np.zeros((1, 1), dtype=np.int32))


# ---------------------------------------------------------------------------
# symmetric-power values at prime powers


def test_sym_prime_power_trivial_cases():
    for j in (1, 3, 8):
        for t in (-1.5, 0.0, 2.0):
            assert H.sym_prime_power(j, 0, t) == 1.0


def test_sym_prime_power_a1_is_basis_polynomial():
    for j in range(1, 9):
        for t in (-1.9, -0.3, 0.8, 1.7):
            want = chebyshev_s(j)(t)
            assert abs(H.sym_prime_power(j, 1, t) - want) < 1e-10 * max(1, abs(want))


def test_sym_prime_power_hecke_recursion_example():
    assert abs(H.sym_prime_power(1, 3, 1.2) - (-0.672)) < 1e-12


def test_sym_prime_power_boundary_dimension_count():
    for j in range(1, 7):
        for a in range(0, 7):
            got = H.sym_prime_power(j, a, 2.0)
            assert got == pytest.approx(math.comb(a + j, j), rel=1e-12)


def test_sym_prime_power_against_exact_rational_oracle():
    rng = random.Random(7)
    for _ in range(60):
        j = rng.randint(1, 8)
        a = rng.randint(1, 6)
        den = rng.randint(1, 97)
        tf = Fraction(rng.randint(-2 * den, 2 * den), den)
        got = H.sym_prime_power(j, a, float(tf))
        want = float(sym_prime_power_gauss(j, a)(tf))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (j, a, tf)


def test_sym_prime_power_divisor_style_bound():
    rng = random.Random(9)
    for _ in range(40):
        j = rng.randint(1, 8)
        a = rng.randint(0, 6)
        t = rng.uniform(-2, 2)
        assert abs(H.sym_prime_power(j, a, t)) <= math.comb(a + j, j) + 1e-9


def test_sym_prime_power_domain_errors():
    with pytest.raises(ValueError):
        H.sym_prime_power(0, 1, 0.5)
    with pytest.raises(CapacityError, match="l\\*j = 65 exceeds the size cap 64"):
        H.sym_prime_power(65, 1, 0.5)
    with pytest.raises(ValueError):
        H.sym_prime_power(2, -1, 0.5)
    with pytest.raises(ValueError):
        H.sym_prime_power(2, 1, 2.5)
    with pytest.raises(ValueError, match="t=nan outside the Deligne interval"):
        H.sym_prime_power(2, 3, float("nan"))


# ---------------------------------------------------------------------------
# sieve


def test_sieve_j1_matches_table(table, delta_1e4):
    lam = H.sym_coeff_sieve(1, table(2000))
    assert lam[1] == 1.0
    for n in range(1, 2001):
        assert abs(lam[n] - delta_1e4.lam(n)) < 1e-9


def test_sieve_prime_values_are_a_p_to_the_j(table, delta_1e4):
    # lam_sym^j(p) = lam_f(p^j), read off the table where p^j fits
    lam = H.sym_coeff_sieve(3, table(20))
    for p in (2, 3, 5, 7, 11, 13):
        if p**3 <= delta_1e4.limit:
            assert abs(lam[p] - delta_1e4.lam(p**3)) < 1e-9


def test_sieve_multiplicative(table):
    lam = H.sym_coeff_sieve(2, table(1000))
    for m, n in ((2, 3), (4, 9), (5, 8), (7, 9), (25, 4)):
        assert lam[m * n] == pytest.approx(lam[m] * lam[n], rel=1e-12, abs=1e-12)


def test_sieve_sym2_divisor_identity(table, delta_1e6):
    """lam_sym^2(n) = sum over d^2 | n of lam_f((n/d^2)^2), termwise."""
    N = 1000
    lam = H.sym_coeff_sieve(2, table(N))
    for n in range(1, N + 1):
        want = 0.0
        d = 1
        while d * d <= n:
            if n % (d * d) == 0:
                m = n // (d * d)
                want += delta_1e6.lam(m * m)
            d += 1
        assert abs(lam[n] - want) < 1e-9, n


@pytest.mark.parametrize("j", range(1, 9))
def test_sieve_matches_factorization_loop_exactly(j, table):
    # N = 1..4 have no or one prime below sqrt(N); 127, 128 = 2^7 and 129
    # straddle a power of two, where the order floor(log2 N) steps up
    for N in (1, 2, 3, 4, 127, 128, 129, 1000):
        assert H.sym_coeff_sieve(j, table(N)).tolist() == naive_sym_coeff_sieve(j, table(N))


def test_sieve_matches_factorization_loop_at_hard_cap(delta_1e6):
    assert delta_1e6.limit == H.HARD_CAP
    lam = H.sym_coeff_sieve(2, delta_1e6)
    want = naive_sym_coeff_sieve(2, delta_1e6)
    # seven distinct primes (the most below 10^6), 2^19, the largest prime,
    # and the last index
    for n in (510510, 524288, 999983, 999999):
        assert lam[n] == want[n], n
    assert lam.tolist() == want


# blake2b (16 bytes) of the little-endian float64 values of the sieve to
# N = 10^4 for j = 1..8, recorded before the sieve took l
SIEVE_DIGESTS_1E4 = {
    1: "f9a6d4a5cc12cab0efab5df4cceb8196",
    2: "39a171fbe49e2fe2a5094f45e7721f5d",
    3: "4447ed27f372bf825302da205fb5f871",
    4: "42650abe044b6b936927feb99def6b24",
    5: "f366e3136beb39a3b7b4743026a259f0",
    6: "54597416da03108165b25faf4ca0d3e4",
    7: "476d58d8204ee1419a07799ea3b07f7f",
    8: "f53d39ad937d578043fc1843b251691a",
}


@pytest.mark.parametrize("j", range(1, 9))
def test_sieve_at_l1_is_bit_identical_to_the_values_before_l(j, delta_1e4):
    for lam in (H.sym_coeff_sieve(j, delta_1e4), H.sym_coeff_sieve(j, delta_1e4, 1)):
        assert lam.dtype == np.float64
        digest = hashlib.blake2b(lam.astype("<f8").tobytes(), digest_size=16)
        assert digest.hexdigest() == SIEVE_DIGESTS_1E4[j]


@pytest.mark.parametrize("l, j", [(2, 2), (3, 3), (4, 2), (6, 2), (8, 8), (2, 32), (32, 2), (64, 1)])
def test_sieve_powers_within_the_docstring_bound(l, j, delta_1e4):
    # the term for n with k distinct primes is within gamma_{(l+3)k} of
    # v**l, v the factorization loop's value, while every power and product
    # is normal; those are the terms at the prime powers and at n // P[n]
    N = delta_1e4.limit
    lam = H.sym_coeff_sieve(j, delta_1e4, l).tolist()
    naive = naive_sym_coeff_sieve(j, delta_1e4)
    spf = smallest_prime_factors(N)
    u = 2.0**-53
    assert all(v == 0.0 or abs(v) >= 2.0**-1022 for v in lam)
    moved = False
    for n in range(1, N + 1):
        k, m = 0, n
        while m > 1:
            p = spf[m]
            while m % p == 0:
                m //= p
            k += 1
        want = naive[n] ** l
        bound = (l + 3) * k * u / (1 - (l + 3) * k * u)
        assert abs(lam[n] - want) <= bound * abs(want), n
        moved = moved or lam[n] != want
    # the powers are rounded at the prime powers, so the bound is not idle
    assert moved


@pytest.mark.parametrize("j", [0, -2, 65])
def test_sieve_rejects_j_below_one_at_every_n(j, table):
    # check_pair(1, j) is the sieve's one j rule, so it also caps j at 64
    if j > 0:
        error, message = CapacityError, r"l\*j = 65 exceeds the size cap 64"
    else:
        error, message = ValueError, "j must be positive"
    for N in (1, 2, 50):
        with pytest.raises(error, match=message):
            H.sym_coeff_sieve(j, table(N))


def test_sieve_rejects_t_outside_the_deligne_interval(table):
    # |a(p)| may reach 2 p^5.5 at weight 12: 841.8 at p = 3 and 88943.1 at
    # p = 7. Moving a(3) by 2*691 and a(7) by -105*691 keeps a(n) =
    # sigma_11(n) mod 691, so the table passes the certificate, but t = 3.88
    # at 3 and -2.008 at 7; both sieves name the least prime's t
    raw = list(table(10).raw)
    raw[3] += 2 * 691
    raw[7] -= 105 * 691
    form = H.EigenformTable(12, 10, digits_of(12, raw))
    t3 = raw[3] / 3**5.5
    assert 3.8 < t3 < 3.9 and -2.01 < raw[7] / 7**5.5 < -2.0
    message = f"t={re.escape(repr(t3))} outside the Deligne interval"
    for sieve in (H.sym_coeff_sieve, naive_sym_coeff_sieve):
        with pytest.raises(ValueError, match=message):
            sieve(2, form)


def test_sieve_rejects_a_nan_t(table, monkeypatch):
    # abs(nan) > 2 is False, so the vector scan must name a NaN t too; a
    # certified table holds integers, so the NaN is planted in _lam
    real = H._lam

    def nan_at_5(form, ns, norms):
        t = real(form, ns, norms)
        t[np.asarray(ns) == 5] = math.nan
        return t

    monkeypatch.setattr(H, "_lam", nan_at_5)
    with pytest.raises(ValueError, match="t=nan outside the Deligne interval"):
        H.sym_coeff_sieve(2, table(10))


# ---------------------------------------------------------------------------
# prime utilities


def test_primes_up_to():
    assert H.primes_up_to(0) == H.primes_up_to(1) == []
    assert H.primes_up_to(2) == [2]
    assert H.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_smallest_prime_factors():
    # the oracle sieve that naive_sym_coeff_sieve factors with
    spf = smallest_prime_factors(20)
    assert spf[2] == 2 and spf[9] == 3 and spf[15] == 3 and spf[17] == 17
    assert spf[12] == 2 and spf[1] == 0


def test_largest_prime_powers():
    # the one scatter of the primes above sqrt(N) meets the slice sieve of
    # the powers of those below it around N = k^2
    top = 10**5
    spf = smallest_prime_factors(top)
    want = [0, 1]
    for n in range(2, top + 1):
        p, m = spf[n], n
        while m % p == 0:
            m //= p
        want.append(n // m if m == 1 else want[m])
    squares = (4, 9, 49, 10000, 313**2)
    for N in (0, 1, 2, 3000, top, *(n + e for n in squares for e in (-1, 0, 1))):
        P, primes = H.largest_prime_powers(N)
        assert P.dtype == primes.dtype == np.int32, N
        assert P.tolist() == want[: N + 1], N
        assert primes.tolist() == [n for n in range(2, N + 1) if spf[n] == n], N


def test_size_memos_are_read_only(table):
    # every sieve of one size shares these arrays: a write to one would
    # move the terms of all of them
    N = 1000
    H.sym_coeff_sieve(2, table(N))
    P, primes, C = H._sieve(N)
    assert np.array_equal(C, np.arange(N + 1) // np.maximum(P, 1))
    for memo in (P, primes, C, H._prime_norms(12, N)):
        with pytest.raises(ValueError, match="read-only"):
            memo[1] += 1


def test_size_memos_keep_the_last_size_only():
    # each holds the arrays of one size, the last sieved: a second sieve of
    # it is a hit, and a sieve of another size replaces it
    memos = (H._sieve, H._prime_norms)
    for N, hit in ((5, None), (5, True), (6, False), (5, False)):
        before = [memo.cache_info() for memo in memos]
        H.sym_coeff_sieve(2, H.eigenform_qexp(12, N))
        for memo, was in zip(memos, before):
            now = memo.cache_info()
            assert now.maxsize == now.currsize == 1
            if hit is not None:
                assert (now.misses == was.misses) is hit


def test_satake_table(delta_1e4):
    # t = lam(p) = 2 cos(theta_p) lies in the Deligne interval at every prime,
    # so deligne_t hands each one on unclamped
    primes = H.primes_up_to(delta_1e4.limit)
    assert primes[0] == 2 and primes[-1] == 9973
    for p in primes:
        t = delta_1e4.lam(p)
        assert abs(t) <= 2.0
        assert H.deligne_t(t) == t


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path)
    tab = H.eigenform_qexp(16, 120)
    path = H.save_table(tab, cache)
    assert path.endswith("tau_16_120.b32")
    with open(path, "rb") as fh:
        assert fh.read() == tab.digits.astype("<i4").tobytes()
    back = H.load_table(16, 120, cache)
    assert back is not None
    assert back.digits.dtype == np.int32  # native, whatever the host's byte order
    assert back.raw == tab.raw
    assert back.weight == 16


def test_cache_missing_returns_none(tmp_path):
    assert H.load_table(12, 50, str(tmp_path)) is None


def test_cache_rejects_corruption(tmp_path):
    cache = str(tmp_path)
    raw = list(H.eigenform_qexp(12, 60).raw)
    raw[6] -= 1  # breaks multiplicativity a(6) = a(2)a(3)
    write_cache(12, raw, cache)
    with pytest.raises(ConsistencyError, match=r"a\(6\) != sigma_11\(6\) mod 691"):
        H.load_table(12, 60, cache)


def test_overlapping_cache_writers_keep_their_own_temp_files(tmp_path, monkeypatch, table):
    # every writer once used one `.tmp` name, so a second writer of the same
    # table could rename it away between this writer's tofile and os.replace,
    # whose rename then raised FileNotFoundError
    cache, form = str(tmp_path), table(50)
    replace = os.replace

    def overlapped_replace(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        other = threading.Thread(target=H.save_table, args=(form, cache))
        other.start()
        other.join()
        replace(src, dst)

    monkeypatch.setattr(os, "replace", overlapped_replace)
    H.save_table(form, cache)
    assert os.listdir(cache) == ["tau_12_50.b32"]
    assert H.load_table(12, 50, cache).raw == form.raw


def test_save_table_needs_an_existing_directory(tmp_path, table):
    with pytest.raises(FileNotFoundError):
        H.save_table(table(50), str(tmp_path / "missing"))
    assert os.listdir(tmp_path) == []  # neither the directory nor a temp file


def test_cached_eigenform_creates_then_reuses(tmp_path):
    for cache in (str(tmp_path), str(tmp_path / "a" / "b")):
        tab1 = H.cached_eigenform(12, 80, cache)
        path = H.cache_path(cache, 12, 80)
        mtime = os.path.getmtime(path)
        tab2 = H.cached_eigenform(12, 80, cache)
        assert tab1.raw == tab2.raw
        assert os.path.getmtime(path) == mtime
