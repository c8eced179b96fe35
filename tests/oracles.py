"""Independent slow-path oracles used only by the tests.

Everything here avoids the library's fast paths on purpose: the
inclusion-exclusion binomial sum for the composition counts instead of
repeated convolution, schoolbook convolution instead of multi-modular FFT
products, direct divisor enumeration instead of sieves, the defining
infinite product for the weight-12 form instead of the eta-cube route,
Gaussian binomials instead of Newton's identities for symmetric-power
values, the closed binomial form of the basis S_r instead of its
recursion, a factorization loop over a smallest-prime-factor sieve
instead of the library's vectorized multiplicative sieve, and repeated
division for the mixed-radix digits of a table instead of Garner's
method. `write_cache` plants a table on disk without the library's
writer, as a disk fault would.
`eigenform_mod` keeps the q-expansion's former per-prime path, eta^6 mod p
squared twice at every prime, as the reference for the library's shared
squarings and its lift of Delta from the weight-12 table's primes; its
Eisenstein coefficients come from `sigma_exact`, a divisor sieve over
Python ints reduced mod p afterwards, not from the library's `_sigma_mod`.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np

from symmoment.hecke import (
    _WEIGHTS,
    cache_path,
    crt_primes,
    series_mul,
    sym_prime_power,
)
from symmoment.symbolic import IntPolynomial

ZERO = IntPolynomial()
ONE = IntPolynomial([1])


def random_rational_points(count, seed=0):
    """Deterministic rational sample points in [-2, 2] with small height."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        den = rng.randint(1, 97)
        points.append(Fraction(rng.randint(-2 * den, 2 * den), den))
    return points


def coeffs_closed_form(l, j):
    """c_m, m = 0..lj, by the inclusion-exclusion binomial sum:

    c_m = sum_{r=0}^{floor(m/(j+1))} (-1)^r C(l, r) C(m - r(j+1) + l - 1, l - 1).
    Both binomials are ordinary: r <= lj/(j+1) < l, and m - r(j+1) >= 0.
    """
    assert l >= 1 and j >= 1
    return tuple(
        sum(
            (-1) ** r * math.comb(l, r) * math.comb(m - r * (j + 1) + l - 1, l - 1)
            for r in range(m // (j + 1) + 1)
        )
        for m in range(l * j + 1)
    )


def weights_closed_form(l, j):
    """d_m (or e_m), m = 0..floor(lj/2), by the binomial sum with lower index l - 2.

    d_m = sum_{r=0}^{floor(m/(j+1))} (-1)^r C(l, r) C(m - r(j+1) + l - 2, l - 2),
    which needs l >= 2: for l = 1 the lower index would be -1.
    """
    assert l >= 2 and j >= 1
    return tuple(
        sum(
            (-1) ** r * math.comb(l, r) * math.comb(m - r * (j + 1) + l - 2, l - 2)
            for r in range(m // (j + 1) + 1)
        )
        for m in range(l * j // 2 + 1)
    )


def chebyshev_s(r):
    """S_r(t) = sum_k (-1)^k C(r-k, k) t^(r-2k), the closed form, no recursion."""
    coeffs = [0] * (r + 1)
    for k in range(r // 2 + 1):
        coeffs[r - 2 * k] = (-1) ** k * math.comb(r - k, k)
    return IntPolynomial(coeffs)


def naive_series_mul(a, b, n_out):
    # zero terms of b are skipped, which keeps sparse factors cheap
    b_terms = [(k, y) for k, y in enumerate(b[:n_out]) if y]
    out = [0] * n_out
    for i, x in enumerate(a[:n_out]):
        if x == 0:
            continue
        for k, y in b_terms:
            if i + k >= n_out:
                break
            out[i + k] += x * y
    return out


def naive_delta(N):
    """tau(0..N) from q * prod_{n>=1} (1 - q^n)^24 expanded termwise."""
    coeffs = [1] + [0] * (N - 1)
    for n in range(1, N):
        factor = [0] * N
        for k in range(0, 25):
            e = n * k
            if e >= N:
                break
            factor[e] = (-1) ** k * math.comb(24, k)
        coeffs = naive_series_mul(coeffs, factor, N)
    return [0] + coeffs


def naive_sigma(power, n):
    # divisors by trial division, as the pairs d, n // d with d <= sqrt(n)
    pairs = [(d, n // d) for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sum(d**power + (e**power if e != d else 0) for d, e in pairs)


@functools.lru_cache(maxsize=None)
def sigma_exact(power, n_terms):
    """sigma_power(m) for m = 0..n_terms-1 (index 0 is 0), exactly, as a
    read-only numpy object array of Python ints: each d adds d^power at its
    multiples, d, 2d, ... Cached per (power, n_terms)."""
    sig = np.zeros(n_terms, dtype=object)
    for d in range(1, n_terms):
        sig[d::d] += d**power
    sig.flags.writeable = False
    return sig


def naive_eisenstein(weight, N):
    if weight == 4:
        mult, power = 240, 3
    else:
        mult, power = -504, 5
    return [1] + [mult * naive_sigma(power, n) for n in range(1, N)]


def naive_eigenform(weight, N):
    """a(0..N) for the one-dimensional weights via schoolbook products."""
    series = naive_delta(N)
    extra = {12: (), 16: (4,), 18: (6,), 20: (4, 4), 22: (4, 6), 26: (4, 4, 6)}[weight]
    for ew in extra:
        series = naive_series_mul(series, naive_eisenstein(ew, N + 1), N + 1)
    return series[: N + 1]


def eta_six(N):
    """eta-tilde^6 to N terms, the schoolbook square of the sparse
    eta-tilde^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2)."""
    eta3 = [0] * N
    k = 0
    while k * (k + 1) // 2 < N:
        eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return naive_series_mul(eta3, eta3, N)


def delta_mod(eta6, p):
    """Delta(0..N) mod p, N = len(eta6), as eta^6 mod p squared twice with
    `series_mul` and shifted by q."""
    s = np.array(eta6, dtype=np.int64) % p
    for _ in range(2):
        s = series_mul(s, s, len(eta6), p)
    return np.concatenate(([0], s))


def eigenform_mod(weight, eta6, p):
    """a(0..N) mod p as `delta_mod` times E_{weight-12} mod p, whose
    coefficients c sigma_r(n) are formed exactly from `sigma_exact` and
    then reduced mod p."""
    s = delta_mod(eta6, p)
    if _WEIGHTS[weight][1]:
        c, r = _WEIGHTS[weight][1]
        e = (c * sigma_exact(r, len(eta6)) % p).astype(np.int64)
        e[0] = 1
        s[1:] = series_mul(s[1:], e, len(eta6), p)
    return s


def digits_of(weight, raw):
    """The `EigenformTable.digits` of raw = a(0..N): column n holds the
    balanced mixed-radix digits of a(n), each in [-(p-1)/2, (p-1)/2] for its
    prime p of the table, found by dividing by each prime in turn and
    taking the remainder above p // 2 down by p."""
    primes = crt_primes(weight, len(raw) - 1)
    digits = np.zeros((len(primes), len(raw)), dtype=np.int32)
    for n, x in enumerate(raw):
        for i, p in enumerate(primes):
            x, d = divmod(x, p)
            if d > p // 2:
                x, d = x + 1, d - p
            digits[i, n] = d
    return digits


def write_cache(weight, raw, cache_dir):
    """Write the balanced digits of raw = a(0..N) as `<i4` to the cache
    file of the weight-`weight` table to N, certified or not; returns the
    path."""
    path = cache_path(cache_dir, weight, len(raw) - 1)
    digits_of(weight, raw).astype("<i4").tofile(path)
    return path


def primes_below(n):
    return [p for p in range(2, n) if all(p % q for q in range(2, int(p**0.5) + 1))]


def smallest_prime_factors(N):
    """spf[n] = least prime factor of n (spf[0] = spf[1] = 0)."""
    spf = list(range(N + 1))
    if N >= 1:
        spf[1] = 0
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == p:
            for m in range(p * p, N + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def naive_sym_coeff_sieve(j, form):
    """lam_sym^j(n) for n = 0..N = form.limit, factoring each n by its
    smallest primes.

    val = ((f(p1^a1) f(p2^a2)) ...) from the smallest prime up, each
    f(p^a) one scalar `sym_prime_power` call at t = a(p) / p^((k-1)/2)
    from `form.raw`, memoized per (p, a).
    """
    N = form.limit
    spf = smallest_prime_factors(N)
    raw, e = form.raw, (form.weight - 1) / 2
    memo = {}
    out = [0.0] * (N + 1)
    if N >= 1:
        out[1] = 1.0
    for n in range(2, N + 1):
        m = n
        val = 1.0
        while m > 1:
            p = spf[m]
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            f = memo.get((p, a))
            if f is None:
                f = memo[(p, a)] = sym_prime_power(j, a, raw[p] / p**e)
            val *= f
        out[n] = val
    return out


def gaussian_binomial(n, k):
    """Integer coefficients of [n choose k]_q, by the q-Pascal rule
    [m choose i] = [m-1 choose i-1] + q^i [m-1 choose i]."""
    row = [[1]]
    for m in range(1, n + 1):
        new = [[1]]
        for i in range(1, m):
            coeffs = [0] * (i * (m - i) + 1)
            for d, c in enumerate(row[i - 1]):
                coeffs[d] += c
            for d, c in enumerate(row[i]):
                coeffs[d + i] += c
            new.append(coeffs)
        new.append([1])
        row = new
    return row[k]


def sym_prime_power_gauss(j, a):
    """lam_sym^j(p^a) in Z[t] as alpha^(-ja) [a+j choose j]_(alpha^2).

    With c_s the coefficients of the Gaussian binomial, the value is
    sum_s c_s alpha^(2s-ja); the palindromic c pairs alpha^e with
    alpha^(-e), and alpha^e + alpha^(-e) = P_e(t) with P_0 = 2, P_1 = t,
    P_(e+1) = t P_e - P_(e-1).
    """
    c = gaussian_binomial(a + j, j)
    assert c == c[::-1] and len(c) == j * a + 1
    t = IntPolynomial([0, 1])
    trace = [IntPolynomial([2]), t]
    while len(trace) <= j * a:
        trace.append(t * trace[-1] - trace[-2])
    out = ZERO
    for s, cs in enumerate(c):
        e = 2 * s - j * a
        if e == 0:
            out = out + IntPolynomial([cs])
        elif e > 0:
            out = out + cs * trace[e]
    return out
