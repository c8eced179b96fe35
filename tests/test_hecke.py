import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    naive_delta,
    naive_eigenform,
    naive_series_mul,
    naive_sym_coeff_sieve,
    smallest_prime_factors,
    sym_prime_power_gauss,
)
from symmoment import hecke as H
from symmoment.errors import CapacityError, ConsistencyError
from symmoment.symbolic import sym_prime_poly


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
    # inputs up to 2^31 instead of residues below p < 2^21 give half-product
    # sums near 2^52, where a double no longer resolves the FFT's rounding
    # error; the same inputs reduced mod p multiply without complaint
    rng = random.Random(3)
    p = PRIMES[0]
    wide = [rng.randrange(1 << 31) for _ in range(1 << 14)]
    with pytest.raises(ConsistencyError):
        H.series_mul(wide, wide, len(wide), p)
    reduced = residues(wide, p)
    H.series_mul(reduced, reduced, len(reduced), p)


def test_crt_primes_exceed_twice_the_deligne_bound():
    # |a(n)| <= d(n) n^((k-1)/2) and d(n) <= 2 sqrt(n), so |a(n)| <= 2 N^(k/2)
    N = H.HARD_CAP
    for weight in H.SUPPORTED_WEIGHTS:
        primes = H.crt_primes(weight, N)
        assert len(set(primes)) == len(primes)
        for q in primes:
            assert q < H.PRIME_CEIL
            assert all(q % d for d in range(2, math.isqrt(q) + 1)), q
        assert math.prod(primes) > 2 * (2 * N ** (weight // 2)), weight


def test_delta_matches_product_oracle():
    assert list(H.delta_qexp(200).raw) == naive_delta(200)


def test_tau_spot_values():
    tab = H.delta_qexp(10)
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
        assert abs(tab.normalized[p]) <= 2.0


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


def test_eigenform_spot_check_passes():
    for weight in H.SUPPORTED_WEIGHTS:
        H.eigenform_qexp(weight, 600).spot_check()


def test_normalization():
    tab = H.eigenform_qexp(16, 100)
    for n in (2, 10, 97):
        assert tab.normalized[n] == tab.raw[n] / n**7.5


def test_domain_and_capacity_errors():
    with pytest.raises(ValueError):
        H.eigenform_qexp(14, 100)
    with pytest.raises(ValueError):
        H.delta_qexp(0)
    with pytest.raises(CapacityError):
        H.delta_qexp(H.HARD_CAP + 1)
    with pytest.raises(CapacityError):
        H.delta_qexp(500, limit=100)


# ---------------------------------------------------------------------------
# symmetric-power values at prime powers


def test_sym_prime_power_trivial_cases():
    for j in (1, 3, 8):
        for t in (-1.5, 0.0, 2.0):
            assert H.sym_prime_power(j, 0, t) == 1.0


def test_sym_prime_power_a1_is_basis_polynomial():
    for j in range(1, 9):
        for t in (-1.9, -0.3, 0.8, 1.7):
            want = sym_prime_poly(j)(t)
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
    with pytest.raises(ValueError):
        H.sym_prime_power(2, -1, 0.5)
    with pytest.raises(ValueError):
        H.sym_prime_power(2, 1, 2.5)


# ---------------------------------------------------------------------------
# sieve


def test_sieve_j1_matches_table(delta_1e4):
    lam = H.sym_coeff_sieve(1, 2000, delta_1e4)
    assert lam[1] == 1.0
    for n in range(1, 2001):
        assert abs(lam[n] - delta_1e4.normalized[n]) < 1e-9


def test_sieve_prime_values_are_a_p_to_the_j(delta_1e4):
    # lam_sym^j(p) = lam_f(p^j), read off the table where p^j fits
    lam = H.sym_coeff_sieve(3, 20, delta_1e4)
    for p in (2, 3, 5, 7, 11, 13):
        if p**3 <= delta_1e4.limit:
            assert abs(lam[p] - delta_1e4.normalized[p**3]) < 1e-9


def test_sieve_multiplicative(delta_1e4):
    lam = H.sym_coeff_sieve(2, 1000, delta_1e4)
    for m, n in ((2, 3), (4, 9), (5, 8), (7, 9), (25, 4)):
        assert lam[m * n] == pytest.approx(lam[m] * lam[n], rel=1e-12, abs=1e-12)


def test_sieve_sym2_divisor_identity(delta_1e6):
    """lam_sym^2(n) = sum over d^2 | n of lam_f((n/d^2)^2), termwise."""
    N = 1000
    lam = H.sym_coeff_sieve(2, N, delta_1e6)
    for n in range(1, N + 1):
        want = 0.0
        d = 1
        while d * d <= n:
            if n % (d * d) == 0:
                m = n // (d * d)
                want += delta_1e6.normalized[m * m]
            d += 1
        assert abs(lam[n] - want) < 1e-9, n


def test_sieve_requires_large_enough_table(delta_1e4):
    with pytest.raises(ValueError):
        H.sym_coeff_sieve(2, 20_000, delta_1e4)


@pytest.mark.parametrize("j", range(1, 9))
def test_sieve_matches_factorization_loop_exactly(j, delta_1e4):
    # N = 1..4 have no or one prime below sqrt(N); 127, 128 = 2^7 and 129
    # straddle a power of two, where the order floor(log2 N) steps up
    for N in (1, 2, 3, 4, 127, 128, 129, 1000):
        assert H.sym_coeff_sieve(j, N, delta_1e4) == naive_sym_coeff_sieve(j, N, delta_1e4)


def test_sieve_matches_factorization_loop_at_hard_cap(delta_1e6):
    N = H.HARD_CAP
    lam = H.sym_coeff_sieve(2, N, delta_1e6)
    want = naive_sym_coeff_sieve(2, N, delta_1e6)
    # seven distinct primes (the most below 10^6), 2^19, the largest prime,
    # and the last index
    for n in (510510, 524288, 999983, 999999):
        assert lam[n] == want[n], n
    assert lam == want


@pytest.mark.parametrize("j", [0, -2])
def test_sieve_rejects_j_below_one_at_every_n(j, delta_1e4):
    for N in (1, 2, 50):
        with pytest.raises(ValueError, match="j must be positive"):
            H.sym_coeff_sieve(j, N, delta_1e4)


def test_sieve_rejects_t_outside_the_deligne_interval():
    # t = 2.5 at p = 3 and -3.0 at p = 7: both sieves name the least prime's t
    normalized = [0.0, 1.0, 0.5, 2.5, 0.0, 0.25, 0.0, -3.0] + [0.0] * 3
    form = H.EigenformTable(12, 10, (0, 1) + (0,) * 9, tuple(normalized))
    for sieve in (H.sym_coeff_sieve, naive_sym_coeff_sieve):
        with pytest.raises(ValueError, match=r"t=2\.5 outside the Deligne interval"):
            sieve(2, 10, form)


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


def test_largest_prime_factors():
    for N in (0, 1, 2, 3, 4, 48, 49, 50, 3000):
        lpf = H.largest_prime_factors(N)
        assert lpf.dtype == np.int32 and len(lpf) == N + 1
        assert not lpf[:2].any()
        spf = smallest_prime_factors(N)
        for n in range(2, N + 1):
            m = n
            while spf[m] != m:
                m //= spf[m]
            assert lpf[n] == m, (N, n)


def test_satake_table(delta_1e4):
    # t = lam(p) = 2 cos(theta_p) lies in the Deligne interval at every prime,
    # so deligne_t hands each one on unclamped
    primes = H.primes_up_to(delta_1e4.limit)
    assert primes[0] == 2 and primes[-1] == 9973
    for p in primes:
        t = delta_1e4.normalized[p]
        assert abs(t) <= 2.0
        assert H.deligne_t(t) == t


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path)
    tab = H.eigenform_qexp(16, 120)
    path = H.save_table(tab, cache)
    assert path.endswith("tau_16_120.csv")
    back = H.load_table(16, 120, cache)
    assert back is not None
    assert back.raw == tab.raw
    assert back.weight == 16


def test_cache_missing_returns_none(tmp_path):
    assert H.load_table(12, 50, str(tmp_path)) is None


def test_cache_rejects_corruption(tmp_path):
    cache = str(tmp_path)
    H.save_table(H.delta_qexp(60), cache)
    path = H.cache_path(cache, 12, 60)
    lines = open(path).read().splitlines()
    lines[6] = "6,-6049"  # breaks multiplicativity a(6) = a(2)a(3)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ConsistencyError):
        H.load_table(12, 60, cache)


def test_cache_rejects_rows_that_split_into_the_right_columns(tmp_path):
    # "7" and "-16744,8,84480" split on commas and newlines into the same
    # fields as rows 7 and 8, but row 7 has one field
    cache = str(tmp_path)
    H.save_table(H.delta_qexp(60), cache)
    path = H.cache_path(cache, 12, 60)
    lines = open(path).read().splitlines()
    assert lines[7:9] == ["7,-16744", "8,84480"]
    lines[7:9] = ["7", "-16744,8,84480"]
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ConsistencyError, match="malformed cache row 7"):
        H.load_table(12, 60, cache)


@pytest.mark.parametrize(
    "edits",
    [
        {3: '3,"252"', 5: "5, 4830"},  # only int() of the a column fails
        {5: '"+5",4830'},  # the n column is not written as str(n)
    ],
)
def test_cache_parse_keeps_the_csv_rules(edits, tmp_path):
    # quoted fields and padded or signed integers are what csv.reader and
    # int() accept
    cache = str(tmp_path)
    tab = H.delta_qexp(60)
    H.save_table(tab, cache)
    path = H.cache_path(cache, 12, 60)
    lines = open(path).read().splitlines()
    for n, line in edits.items():
        lines[n] = line
    open(path, "w").write("\n".join(lines))
    assert H.load_table(12, 60, cache).raw == tab.raw


def test_cache_rejects_bad_header(tmp_path):
    cache = str(tmp_path)
    H.save_table(H.delta_qexp(30), cache)
    path = H.cache_path(cache, 12, 30)
    body = open(path).read().replace("n,a_n", "k,v", 1)
    open(path, "w").write(body)
    with pytest.raises(ConsistencyError):
        H.load_table(12, 30, cache)


def test_cached_eigenform_creates_then_reuses(tmp_path):
    import os

    cache = str(tmp_path)
    tab1 = H.cached_eigenform(12, 80, cache)
    path = H.cache_path(cache, 12, 80)
    mtime = os.path.getmtime(path)
    tab2 = H.cached_eigenform(12, 80, cache)
    assert tab1.raw == tab2.raw
    assert os.path.getmtime(path) == mtime
